"""Dense complex linear algebra kernel.

Hermitian eigendecompositions with a fixed phase convention, a state's
scaled eigenvectors (the basis its validation keeps), Takagi
factorization of complex symmetric matrices, and orthonormal-column
helpers used by the spectral tests and the search.
"""

from dataclasses import dataclass

import numpy as np

from .states import RECON_TOL, STATE_TOL, DensityMatrix, _check_counts, _fix_column_phases

__all__ = [
    "HermitianEig",
    "TakagiResult",
    "ScaledEigvecs",
    "RankDeficientError",
    "hermitian_eig",
    "scaled_eigvecs",
    "takagi",
    "singular_values",
    "product_svd",
    "random_orthonormal_columns",
    "reorthonormalize",
]


class RankDeficientError(ValueError):
    """Columns are numerically linearly dependent and cannot be orthonormalized."""


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class HermitianEig:
    """Eigenvalues (real, descending) and matching unit eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class TakagiResult:
    """Unitary v and nonnegative descending lambdas with v @ S @ v.T = diag(lambdas)."""

    v: np.ndarray
    lambdas: np.ndarray


def hermitian_eig(h) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Eigenvectors follow a deterministic phase convention: the
    largest-magnitude component of each column is made real positive.
    Raises ValueError if ``h`` deviates from Hermiticity by more than
    STATE_TOL, the tolerance every state meets, relative to its norm.
    """
    h = _as_matrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"h must be square, got shape {h.shape}")
    scale = 1.0 + np.linalg.norm(h)
    if np.linalg.norm(h - h.conj().T) > STATE_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return HermitianEig(eigenvalues=w[::-1], eigenvectors=_fix_column_phases(v[:, ::-1]))


@dataclass(frozen=True, eq=False)
class ScaledEigvecs:
    """Rows are eigenvectors of rho scaled by sqrt(eigenvalue); <x_i|x_j> = t_i delta_ij."""

    vectors: np.ndarray
    values: np.ndarray

    @property
    def count(self) -> int:
        return int(self.values.shape[0])


def scaled_eigvecs(rho: DensityMatrix, basis_override=None) -> ScaledEigvecs:
    """Scaled eigenvectors of rho for its eigenvalues above RANK_TOL.

    By default, the read-only basis rho's validation built and keeps
    (DensityMatrix), equal bit for bit to hermitian_eig's values and unit
    vectors above RANK_TOL.  ``basis_override`` supplies the rows directly
    (e.g. a fixed gauge for a degenerate spectrum); it is validated
    against rho: the Gram matrix must be diag(norms^2), the norms^2 must
    match rho's nonzero spectrum as a multiset, and the rows must
    reassemble rho within RECON_TOL.
    """
    vectors, t = rho._basis
    if basis_override is None:
        return ScaledEigvecs(vectors=vectors, values=t)
    x = np.asarray(basis_override, dtype=complex)
    if x.ndim != 2 or x.shape[1] != rho.dim:
        raise ValueError(f"override shape {x.shape} does not match dimension {rho.dim}")
    gram = x @ x.conj().T
    norms = np.diagonal(gram).real.copy()
    if not np.linalg.norm(gram - np.diag(norms)) <= 1e-10:  # NaN fails too
        raise ValueError("override vectors are not orthogonal within tolerance")
    if x.shape[0] != t.shape[0] or np.linalg.norm(np.sort(norms) - np.sort(t)) > 1e-8:
        raise ValueError("override norms do not match the nonzero spectrum of rho")
    recon = np.einsum("ia,ib->ab", x, x.conj())
    if np.linalg.norm(recon - rho.matrix) > RECON_TOL:
        raise ValueError("override vectors do not reassemble rho")
    return ScaledEigvecs(vectors=x, values=norms)


def singular_values(m) -> np.ndarray:
    """Singular values of a complex matrix, descending."""
    return np.linalg.svd(_as_matrix(m, "m"), compute_uv=False)


def product_svd(members, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading left factors, singular values and leading right factors of each member.

    Row i of ``members`` is an m*n coefficient vector; one batched SVD of
    the m x n matrices gives alphas[i] = U_i[:, 0], s[i] descending and
    betas[i] = V_i^H[0, :].  A member is a product when s[i, 1] is
    negligible next to s[i, 0].  With a one-dimensional factor every
    vector is a product: its one singular value gets an exact zero second.
    """
    z = np.asarray(members, dtype=complex)
    u, s, vh = np.linalg.svd(z.reshape(z.shape[0], m, n))
    if s.shape[1] == 1:
        s = np.hstack([s, np.zeros_like(s)])
    return u[:, :, 0], s, vh[:, 0, :]


def takagi(s) -> TakagiResult:
    """Takagi factorization of a complex symmetric matrix.

    Returns a unitary ``v`` and nonnegative descending ``lambdas`` with
    v @ s @ v.T = diag(lambdas).  The lambdas equal the singular values
    of ``s``.  Computed from the eigendecomposition of the real symmetric
    embedding [[Re s, Im s], [Im s, -Re s]]: an eigenvector (a, b) for
    an eigenvalue mu > 0 gives a unit u = a + ib with s @ conj(u) = mu u,
    so u^H s conj(u) = mu is already real and nonnegative and no phase
    pass is needed: the lambdas are the embedding's positive eigenvalues,
    descending, then zeros.  If some are zero, one complete QR of the
    positive modes re-orthonormalizes them (near the zero threshold they
    are only nearly orthogonal; R's real diagonal keeps s conj(u) = mu u)
    and completes them with zero modes, whose conjugates s annihilates.
    Raises ValueError if ``s`` deviates from symmetry by more than 1e-10
    relative to its norm.
    """
    s = _as_matrix(s, "s")
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"s must be square, got shape {s.shape}")
    scale = 1.0 + np.linalg.norm(s)
    if np.linalg.norm(s - s.T) > 1e-10 * scale:
        raise ValueError("matrix is not complex symmetric within tolerance")
    s = (s + s.T) / 2.0
    l = s.shape[0]

    emb = np.empty((2 * l, 2 * l))
    emb[:l, :l], emb[:l, l:], emb[l:, :l], emb[l:, l:] = s.real, s.imag, s.imag, -s.real
    mu, w = np.linalg.eigh(emb)
    mu, w = mu[::-1], w[:, ::-1]

    ztol = 1e3 * np.finfo(float).eps * scale
    lambdas = np.where(mu[:l] > ztol, mu[:l], 0.0)
    npos = int(np.count_nonzero(lambdas))
    u = w[:l, :npos] + 1j * w[l:, :npos]
    if npos < l:
        u = np.linalg.qr(u, mode="complete")[0]
    return TakagiResult(v=u.conj().T, lambdas=lambdas)


def reorthonormalize(m) -> np.ndarray:
    """Orthonormalize columns by QR, preserving the column span.

    Deterministic: the R factor's diagonal is made real positive, so an
    already-orthonormal input is returned unchanged up to roundoff.
    Raises RankDeficientError when the columns are numerically dependent:
    some |R_jj| <= 1e-12 max(1, ||m||).
    """
    m = _as_matrix(m, "m")
    if m.shape[0] < m.shape[1]:
        raise ValueError(f"need at least as many rows as columns, got {m.shape}")
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r).copy()
    if np.min(np.abs(diag)) <= 1e-12 * max(1.0, float(np.linalg.norm(m))):
        raise RankDeficientError("columns are numerically rank deficient")
    return q * (diag / np.abs(diag))[None, :]


def random_orthonormal_columns(k: int, l: int, seed: int) -> np.ndarray:
    """A seeded k x l complex matrix with orthonormal columns (k >= l).

    Gaussian fill followed by QR; deterministic for a fixed seed.
    """
    _check_counts(k=k, l=l, seed=seed)
    if l < 1 or k < l:
        raise ValueError(f"need k >= l >= 1, got k={k}, l={l}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l))
    return reorthonormalize(g)
