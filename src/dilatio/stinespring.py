"""First-order unitary dilations of a single channel.

A square channel T gets a unitary U on H (x) K with a fixed pure ancilla
state omega = |e_0><e_0| such that

    T(A) == tr_K(U (A (x) omega) U^dag).

The ancilla dimension is always d^2, one universal size for every channel
on a d-dimensional system (Kraus lists are zero padded), which is what
lets the semigroup module stack the dilations of all powers T^n over a
single ancilla.  Every read-back is the Kraus channel of the columns
U (1 (x) psi) for omega = |psi><psi| (``channels.column_channel``, the rule
of the register dilations), and every ancilla state passes one purity
rule, ``linalg.pure_state_vector``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    HEISENBERG,
    SCHROEDINGER,
    KrausChannel,
    apply_channel,
    column_channel,
    dual,
    plain_kraus,
    require_accepted,
)
from .linalg import (
    basis_state,
    complete_isometry_to_unitary,
    frozen_matrix,
    is_unitary,
    pure_state_vector,
)
from .linalg import kron  # noqa: F401  bench/test_smoke.py instruments stinespring.kron


def _frozen_unitary(u, n: int) -> np.ndarray:
    """A read-only copy of an n x n unitary; raises ValueError otherwise."""
    u = frozen_matrix(u)
    if u.shape != (n, n):
        raise ValueError(f"unitary of shape {u.shape}, expected {(n, n)}")
    if not is_unitary(u):
        raise ValueError("dilation operator is not unitary within 1e-10")
    return u


def _pure_state(omega, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A read-only copy of a pure state on C^dim and its vector psi; raises ValueError otherwise."""
    w = frozen_matrix(omega)
    try:
        return w, pure_state_vector(w, dim)
    except ValueError as exc:
        raise ValueError(f"ancilla state must be a pure state on C^{dim}: {exc}") from exc


def _read_back(unitary: np.ndarray, psi: np.ndarray, before: int, dim_out: int) -> KrausChannel:
    """The channel of the columns U (1 (x) psi), rows on C^before (x) C^dim_out (x) C^after."""
    return column_channel(unitary.reshape(len(unitary), -1, psi.size) @ psi, before, dim_out)


@dataclass(frozen=True)
class UnitaryDilation:
    """Unitary U on H (x) K with pure ancilla omega; shape == (dim, ancilla_dim)."""

    unitary: np.ndarray
    dim: int
    ancilla_dim: int
    omega: np.ndarray
    psi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = _frozen_unitary(self.unitary, self.dim * self.ancilla_dim)
        w, psi = _pure_state(self.omega, self.ancilla_dim)
        for name, value in (("unitary", u), ("omega", w), ("psi", psi)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.ancilla_dim)

    def apply(self, a) -> np.ndarray:
        """tr_K(U (a (x) omega) U^dag); reproduces the source channel."""
        return apply_channel(_read_back(self.unitary, self.psi, 1, self.dim), a)

    def apply_heisenberg(self, b) -> np.ndarray:
        """tr_omega(U^dag (b (x) id_K) U); reproduces the dual channel."""
        return apply_channel(dual(_read_back(self.unitary, self.psi, 1, self.dim)), b)


def _spread_embedding_columns(completed: np.ndarray, dim: int, ancilla_dim: int) -> np.ndarray:
    # complete_isometry_to_unitary leaves the isometry in the first `dim`
    # columns, the images of x (x) e_0 at composite index h * ancilla_dim:
    # column i goes to slot slots[i], completion columns filling the rest in order.
    slots = np.argsort(np.arange(dim * ancilla_dim) % ancilla_dim != 0, kind="stable")
    return completed[:, np.argsort(slots)]


def stinespring_unitary(ch: KrausChannel) -> UnitaryDilation:
    """Dilate an accepted square Schroedinger channel to a unitary on H (x) K.

    The isometry x (x) e_0 -> sum_i (K_i x) (x) e_i (Kraus list zero padded
    to length d^2) is extended by the deterministic completion rule of
    linalg.complete_isometry_to_unitary, so repeated builds give identical
    matrices.
    """
    if ch.picture != SCHROEDINGER:
        raise ValueError("stinespring_unitary dilates schroedinger channels")
    if not ch.is_square:
        raise ValueError("stinespring_unitary needs a square channel")
    require_accepted(ch)

    d = ch.dim_in
    ancilla_dim = d * d
    ops = plain_kraus(ch)

    iso = np.zeros((d, ancilla_dim, d), dtype=np.complex128)
    iso[:, :len(ops), :] = ops.transpose(1, 0, 2)
    completed = complete_isometry_to_unitary(iso.reshape(d * ancilla_dim, d))
    unitary = _spread_embedding_columns(completed, d, ancilla_dim)
    return UnitaryDilation(unitary, d, ancilla_dim, basis_state(0, ancilla_dim))


@dataclass(frozen=True)
class GeneralDilation:
    """Dilation of a rectangular channel on H (x) G (x) K.

    Reconstruction: T(A) == (tr_H o tr_K)(U (A (x) omega_out (x) omega_anc) U^dag).
    """

    unitary: np.ndarray
    dim_in: int
    dim_out: int
    ancilla_dim: int
    omega_out: np.ndarray
    omega_anc: np.ndarray
    psi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = _frozen_unitary(self.unitary, self.dim_in * self.dim_out * self.ancilla_dim)
        w_out, psi_out = _pure_state(self.omega_out, self.dim_out)
        w_anc, psi_anc = _pure_state(self.omega_anc, self.ancilla_dim)
        psi = np.outer(psi_out, psi_anc).ravel()
        psi.flags.writeable = False
        for name, value in (("unitary", u), ("omega_out", w_out), ("omega_anc", w_anc),
                            ("psi", psi)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.dim_in, self.dim_out, self.ancilla_dim)

    def apply(self, a) -> np.ndarray:
        return apply_channel(_read_back(self.unitary, self.psi, self.dim_in, self.dim_out), a)


def general_stinespring(ch: KrausChannel) -> GeneralDilation:
    """Dilation of a rectangular Schroedinger channel T : B^1(H) -> B^1(G).

    Follows the composite X(.) := omega_H (x) T(tr_G(.)) on H (x) G, which
    is itself a square channel and is dilated by stinespring_unitary; the
    reconstruction then discards the H and K factors.
    """
    if ch.picture != SCHROEDINGER:
        raise ValueError("general_stinespring dilates schroedinger channels")
    require_accepted(ch)

    d_in, d_out = ch.dim_in, ch.dim_out
    ops = plain_kraus(ch)

    # tr_G as Kraus family id_H (x) <g|, then T, then the embedding
    # |e_0>_H (x) id_G: operator (i, g) maps |h, g'> to delta_gg' |e_0> (x) K_i|h>
    r, n = len(ops), d_in * d_out
    traced = ops[:, np.newaxis, :, :, np.newaxis] * np.eye(d_out)[:, np.newaxis, np.newaxis, :]
    composite = np.zeros((r * d_out, n, n), dtype=np.complex128)
    composite[:, :d_out, :] = traced.reshape(r * d_out, d_out, n)
    square = KrausChannel(n, n, composite)
    inner = stinespring_unitary(square)
    return GeneralDilation(
        unitary=inner.unitary,
        dim_in=d_in,
        dim_out=d_out,
        ancilla_dim=inner.ancilla_dim,
        omega_out=basis_state(0, d_out),
        omega_anc=inner.omega,
    )


def heisenberg_dilation(ch: KrausChannel) -> UnitaryDilation:
    """Dilation of a unital Heisenberg channel S in the form
    S(B) == tr_omega(U^dag (B (x) id_K) U).

    Built on the unique Schroedinger pre-dual (same Kraus family, flipped
    picture), which stinespring_unitary certifies: its Choi matrix has the
    eigenvalues of this one's.  apply_heisenberg evaluates the reconstruction.
    """
    if ch.picture != HEISENBERG:
        raise ValueError("heisenberg_dilation expects a heisenberg channel")
    if not ch.is_square:
        raise ValueError("heisenberg_dilation needs a square channel")
    return stinespring_unitary(dual(ch))
