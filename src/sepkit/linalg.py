"""Dense complex linear algebra kernel.

Hermitian eigendecompositions with a fixed phase convention, Takagi
factorization of complex symmetric matrices, and orthonormal-column
helpers used by the spectral tests and the search.
"""

from dataclasses import dataclass

import numpy as np

from .states import STATE_TOL

__all__ = [
    "HermitianEig",
    "TakagiResult",
    "RankDeficientError",
    "hermitian_eig",
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


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive.

    The phase is conj(p) / hypot(p): the modulus of a complex scalar is
    hypot (the array np.abs can differ in the last bit), and dividing by
    it as a complex keeps the signed zeros, so the columns equal a
    per-column conj(p) / abs(p) bit for bit.  A zero column is left alone.
    """
    p = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.where(p != 0, p.conj() / np.hypot(p.real, p.imag), 1.0)
    return v * phase


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues (real, descending) and matching unit eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
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
    return descending_eig(*np.linalg.eigh((h + h.conj().T) / 2.0))


def descending_eig(w: np.ndarray, v: np.ndarray) -> HermitianEig:
    """hermitian_eig's result from numpy's ascending eigh output (w, v)."""
    return HermitianEig(eigenvalues=w[::-1], eigenvectors=_fix_column_phases(v[:, ::-1]))


def singular_values(m) -> np.ndarray:
    """Singular values of a complex matrix, descending."""
    return np.linalg.svd(_as_matrix(m, "m"), compute_uv=False)


def product_svd(members, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading left factors, singular values and leading right factors of each member.

    Row i of ``members`` is an m*n coefficient vector; one batched SVD of
    the m x n matrices gives alphas[i] = U_i[:, 0], s[i] descending and
    betas[i] = V_i^H[0, :].  A member is a product when s[i, 1] is
    negligible next to s[i, 0] (always, when min(m, n) == 1).
    """
    z = np.asarray(members, dtype=complex)
    u, s, vh = np.linalg.svd(z.reshape(z.shape[0], m, n))
    return u[:, :, 0], s, vh[:, 0, :]


def _complex_orthonormal_from_real_pool(pool: np.ndarray, against: np.ndarray,
                                        needed: int) -> np.ndarray:
    """Extract `needed` complex-orthonormal columns from a real-kernel pool.

    The pool columns span a J-invariant real subspace, i.e. a complex
    subspace of dimension >= needed once reinterpreted as complex vectors.
    """
    if against.shape[1] > 0:
        pool = pool - against @ (against.conj().T @ pool)
    u, s, _ = np.linalg.svd(pool, full_matrices=False)
    if s.shape[0] < needed or s[needed - 1] < 1e-8:
        raise RankDeficientError("degenerate kernel pool in Takagi factorization")
    return u[:, :needed]


def takagi(s) -> TakagiResult:
    """Takagi factorization of a complex symmetric matrix.

    Returns a unitary ``v`` and nonnegative descending ``lambdas`` with
    v @ s @ v.T = diag(lambdas).  The lambdas equal the singular values
    of ``s``.  Computed from the eigendecomposition of the real symmetric
    embedding [[Re s, Im s], [Im s, -Re s]]: eigenvectors for eigenvalues
    +lambda reassemble into complex vectors u with s @ conj(u) = lambda u,
    and the zero modes are extracted by complex orthonormalization of the
    kernel, which stays stable when lambdas are degenerate or vanish.
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

    emb = np.array([[s.real, s.imag], [s.imag, -s.real]]).swapaxes(1, 2).reshape(2 * l, 2 * l)
    mu, w = np.linalg.eigh(emb)
    mu = mu[::-1]
    w = w[:, ::-1]

    ztol = 1e3 * np.finfo(float).eps * scale
    npos = min(int(np.sum(mu > ztol)), l)
    u_pos = w[:l, :npos] + 1j * w[l:, :npos]
    if npos < l:
        kernel = np.abs(mu) <= ztol
        pool = w[:l, kernel] + 1j * w[l:, kernel]
        u_ker = _complex_orthonormal_from_real_pool(pool, u_pos, l - npos)
        u = np.hstack([u_pos, u_ker])
    else:
        u = u_pos

    # Phase fix: rotate each column so u_i^dag @ s @ conj(u_i) is real >= 0.
    d = np.einsum("ij,jk,ki->i", u.conj().T, s, u.conj())
    phases = np.where(np.abs(d) > 0, np.exp(1j * np.angle(d) / 2.0), 1.0)
    u = u * phases[None, :]
    lambdas = np.abs(d)

    order = np.argsort(-lambdas, kind="stable")
    return TakagiResult(v=u[:, order].conj().T, lambdas=lambdas[order])


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
    if l < 1 or k < l:
        raise ValueError(f"need k >= l >= 1, got k={k}, l={l}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l))
    return reorthonormalize(g)
