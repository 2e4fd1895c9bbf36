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

from typing import Iterable, Sequence

import numpy as np

from .errors import CompletionError

# Frobenius tolerance for Hermiticity / isometry / unitarity checks.
HERMITIAN_ATOL = 1e-10
# Eigenvalues above -PSD_ATOL count as nonnegative.
PSD_ATOL = 1e-10
# Residual below which a candidate basis vector is treated as already
# spanned during unitary completion.
COMPLETION_SKIP_TOL = 1e-8


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
    """Average away the anti-Hermitian rounding residue of a."""
    return 0.5 * (a + a.conj().T)


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
    units = []
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=np.complex128)
            e[i, j] = 1.0
            units.append(e)
    return units


def basis_state(index: int, dim: int) -> np.ndarray:
    """The pure state |index><index| as a dim x dim matrix."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    e = np.zeros((dim, dim), dtype=np.complex128)
    e[index, index] = 1.0
    return e


def _check_factor_shape(m: np.ndarray, dims: Sequence[int]) -> list[int]:
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(
            f"matrix of shape {m.shape} inconsistent with factors {dims} "
            f"(product {total})"
        )
    return dims


def partial_trace(a, dims: Sequence[int], keep: int | Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``a`` is an operator on the big-endian product of ``dims``; the result
    acts on the kept factors in their original order.  This realizes the
    adjoint of B -> B (x) id on the discarded factors: for every test
    operator B on the kept space,

        tr(B . partial_trace(a, dims, keep)) == tr((B (x) id) . a).
    """
    m = as_complex_matrix(a)
    dims = _check_factor_shape(m, dims)
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    kept = sorted({int(i) for i in keep})
    if any(i < 0 or i >= len(dims) for i in kept):
        raise ValueError(f"keep indices {kept} out of range for {len(dims)} factors")
    if not kept or len(kept) == len(dims):
        raise ValueError("keep must be a nonempty proper subset of the factors")

    n = len(dims)
    tens = m.reshape(dims + dims)
    row_labels = list(range(n))
    # traced column factors share their row label, kept ones get fresh labels
    col_labels = [n + i if i in kept else i for i in range(n)]
    out_labels = kept + [n + i for i in kept]
    reduced = np.einsum(tens, row_labels + col_labels, out_labels)
    d_kept = int(np.prod([dims[i] for i in kept]))
    return reduced.reshape(d_kept, d_kept)


def partial_trace_state(b, dims: Sequence[int], omega) -> np.ndarray:
    """Partial trace against a fixed ancilla state.

    For an operator ``b`` on H (x) K (``dims == [dim_H, dim_K]``) and a
    density matrix ``omega`` on K this returns the unique X with

        tr(X A) == tr(b . (A (x) omega))    for every A on H,

    computed as tr_K((id (x) omega) . b).  For pure omega = |y><y| it
    coincides with V_y^dag b V_y, where V_y embeds x -> x (x) y.
    """
    m = as_complex_matrix(b)
    if len(dims) != 2:
        raise ValueError(f"expected two factors [dim_H, dim_K], got {list(dims)}")
    d0, d1 = (int(d) for d in dims)
    _check_factor_shape(m, [d0, d1])
    w = check_density_matrix(omega)
    if w.shape != (d1, d1):
        raise ValueError(f"omega of shape {w.shape} does not live on a factor of dimension {d1}")
    tens = m.reshape(d0, d1, d0, d1)
    return np.einsum("ijkl,lj->ik", tens, w)


def is_hermitian(a, tol: float = HERMITIAN_ATOL) -> bool:
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.linalg.norm(m - m.conj().T)) <= tol


def is_psd(a) -> bool:
    """True iff a is Hermitian within PSD_ATOL and its minimum eigenvalue >= -PSD_ATOL."""
    m = as_complex_matrix(a)
    if not is_hermitian(m, PSD_ATOL):
        return False
    eigenvalues = np.linalg.eigvalsh(hermitize(m))
    return bool(eigenvalues.min() >= -PSD_ATOL)


def _density_spectrum(rho, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """A validated state (Hermitian, PSD, unit trace, all within tol) and
    the ascending eigenvalues of its Hermitian part."""
    m = as_complex_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"a state must be square, got shape {m.shape}")
    if not is_hermitian(m, tol):
        raise ValueError("state is not Hermitian within tolerance")
    eigenvalues = np.linalg.eigvalsh(hermitize(m))
    if eigenvalues.min() < -tol:
        raise ValueError(f"state has negative eigenvalue {eigenvalues.min():.3e}")
    if abs(np.trace(m) - 1.0) > tol:
        raise ValueError(f"state trace {np.trace(m):.12g} differs from 1")
    return m, eigenvalues


def check_density_matrix(rho, tol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate a state: Hermitian, PSD, and unit trace, all within tol."""
    return _density_spectrum(rho, tol)[0]


def is_pure_state(rho, tol: float = HERMITIAN_ATOL) -> bool:
    """Rank-one test: second largest eigenvalue at most tol, from the one
    eigendecomposition that validates the state."""
    m, eigenvalues = _density_spectrum(rho, tol)
    return m.shape[0] == 1 or bool(eigenvalues[-2] <= tol)


def pure_state_vector(state, dim: int, tol: float = HERMITIAN_ATOL) -> np.ndarray:
    """A read-only psi with |psi><psi| the given pure state on C^dim.

    ``state`` is either psi itself, which must have unit norm within tol,
    or a dense omega.  omega is reduced to its column at its largest
    diagonal entry, divided by the square root of that entry (psi up to a
    global phase), and accepted when ||omega - omega^dag||_F,
    |tr omega - 1| and ||omega - psi psi^dag||_F are each at most tol.
    By Weyl's inequality the last bounds every eigenvalue of the Hermitian
    part of omega but the largest by tol, so this O(dim^2) check is no
    weaker than is_pure_state's eigendecomposition.
    """
    a = np.asarray(state, dtype=np.complex128)
    if not np.all(np.isfinite(a)):
        raise ValueError("state contains NaN or Inf entries")
    if a.shape == (dim, dim):
        return pure_state_from_entries(*stored_entries(a), dim, tol)
    if a.shape != (dim,):
        raise ValueError(f"state of shape {a.shape}, expected ({dim},) or ({dim}, {dim})")
    psi = a.copy()
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
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


def pure_state_from_entries(index, values, dim: int, tol: float = HERMITIAN_ATOL) -> np.ndarray:
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
    if _norm_sq(skew) + _norm_sq(values[~paired]) > tol * tol:
        raise ValueError("state is not Hermitian within tolerance")
    trace = values[row == col].sum()
    if abs(trace - 1.0) > tol:
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
    if _norm_sq(values[~inside]) + _norm_sq(block) > tol * tol:
        raise ValueError("state is not pure within tolerance")
    psi.flags.writeable = False
    return psi


def _norm_sq(a: np.ndarray) -> float:
    """||a||_F^2."""
    return float(np.vdot(a, a).real)


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
    return float(np.linalg.norm(gram - np.eye(m.shape[1])))


def is_unitary(a, tol: float = HERMITIAN_ATOL) -> bool:
    """unitarity_residual(a) <= tol, for a matrix or a stack of blocks."""
    return unitarity_residual(a) <= tol


def complete_isometry_to_unitary(v) -> np.ndarray:
    """Deterministically extend an isometry to a square unitary.

    The input must have orthonormal columns (V^dag V == id within 1e-10).
    The output's first ``cols`` columns equal the input columns bit for
    bit.  Completion rule, fixed so dilations are reproducible: walk the
    standard basis vectors in index order; skip any whose residual after
    orthogonal projection onto the current span has norm below 1e-8;
    orthonormalize the accepted ones in order (a second projection pass
    keeps the Gram residual at rounding level).
    """
    m = as_complex_matrix(v)
    rows, cols = m.shape
    if rows < cols:
        raise ValueError(f"isometry must be tall, got shape {m.shape}")
    gram = m.conj().T @ m
    if np.linalg.norm(gram - np.eye(cols)) > HERMITIAN_ATOL:
        raise ValueError("input columns are not orthonormal within 1e-10")

    q = m.copy()
    for i in range(rows):
        if q.shape[1] == rows:
            break
        e = np.zeros(rows, dtype=np.complex128)
        e[i] = 1.0
        r = e - q @ (q.conj().T @ e)
        if np.linalg.norm(r) < COMPLETION_SKIP_TOL:
            continue
        r = r - q @ (q.conj().T @ r)
        r = r / np.linalg.norm(r)
        q = np.column_stack([q, r])
    if q.shape[1] != rows:
        raise CompletionError("unitary completion did not reach full rank")
    return q
