"""Pair operators for bipartite product tests.

A pure state on an m x n system, reshaped to its coefficient matrix A
(row index = first factor), is a product state exactly when all rows of A
are parallel, i.e. when every 2x2 minor anchored at A[1,1] vanishes.
Each anchored minor (p, q) is encoded as a symmetric sign matrix B with
four nonzero entries; the bilinear residual psi^dag B conj(psi) equals
twice the conjugated minor and vanishes on product states.  On a
state's scaled eigenvectors each B gives the complex symmetric matrix
tau_matrix that the decompositions and the search read.

A one-dimensional factor (1 x n or m x 1) has no minors, since every
vector is a product: the pair list is [], and the other modules read it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import ScaledEigvecs
from .states import _check_counts, _check_dims

__all__ = [
    "PairIndex",
    "PairOperator",
    "basis_index",
    "enumerate_pairs",
    "build_pair_operator",
    "pair_operators",
    "tilde",
    "pair_residual",
    "tau_matrix",
]


@dataclass(frozen=True)
class PairIndex:
    """One anchored 2x2 minor: row p of the first factor, column q of the second."""

    p: int
    q: int


@dataclass(frozen=True)
class PairOperator:
    """Symmetric mn x mn sign matrix with exactly four nonzero entries.

    ``entries`` lists (row, col, value) with 1-based indices, both
    symmetric partners included.
    """

    m: int
    n: int
    pair: PairIndex
    entries: tuple[tuple[int, int, float], ...]

    def dense(self) -> np.ndarray:
        b = np.zeros((self.m * self.n, self.m * self.n))
        for row, col, val in self.entries:
            b[row - 1, col - 1] = val
        return b


def basis_index(n: int, a: int, b: int) -> int:
    """1-based composite index of |a b> on an (m, n) system: (a-1) n + b."""
    return (a - 1) * n + b


def enumerate_pairs(m: int, n: int) -> list[PairIndex]:
    """All (m-1)(n-1) anchored minors, ordered by q ascending then p ascending.

    [] when a factor is one-dimensional; dims below 1 raise ValueError,
    as for a DensityMatrix.
    """
    _check_dims(m, n)
    return [PairIndex(p, q) for q in range(2, n + 1) for p in range(2, m + 1)]


def build_pair_operator(m: int, n: int, pair: PairIndex) -> PairOperator:
    """The sign matrix for one anchored minor.

    Value -1 at (index(1,1), index(p,q)) and its transpose, +1 at
    (index(1,q), index(p,1)) and its transpose.  Raises ValueError, naming
    the field, when p or q is not an integer, and when it is out of range.
    """
    p, q = pair.p, pair.q
    _check_counts(p=p, q=q)
    if not (2 <= p <= m and 2 <= q <= n):
        raise ValueError(f"pair ({p}, {q}) out of range for dims ({m}, {n})")
    i11 = basis_index(n, 1, 1)
    ipq = basis_index(n, p, q)
    i1q = basis_index(n, 1, q)
    ip1 = basis_index(n, p, 1)
    entries = (
        (i11, ipq, -1.0),
        (ipq, i11, -1.0),
        (i1q, ip1, 1.0),
        (ip1, i1q, 1.0),
    )
    return PairOperator(m=m, n=n, pair=pair, entries=entries)


def pair_operators(m: int, n: int) -> list[PairOperator]:
    """Pair operators for every anchored minor, in enumeration order."""
    return [build_pair_operator(m, n, pair) for pair in enumerate_pairs(m, n)]


@dataclass(frozen=True, eq=False)
class _PairLayout:
    """Every pair of one shape, the 0-based rows, columns and values of its
    four entries (P, 4), and the 4 x 4 sign blocks they give (P, 4, 4):
    sign[r, e, f] = val_e where entry e's column is entry f's row.  The
    arrays are read-only; pair_reports, the search and verify_ensemble read them."""

    pairs: tuple[PairIndex, ...]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    sign: np.ndarray


@functools.lru_cache(maxsize=64, typed=True)
def _pair_layout(m: int, n: int) -> _PairLayout:
    """The layout of pair_operators(m, n), built once per shape."""
    ops = pair_operators(m, n)
    ent = np.array([b.entries for b in ops]).reshape(-1, 4, 3)  # (0, 4, 3) with no pairs
    rows, cols = (ent[:, :, k].astype(np.intp) - 1 for k in (0, 1))
    vals = ent[:, :, 2]
    sign = np.where(cols[:, :, None] == rows[:, None, :], vals[:, :, None], 0.0)
    for a in (rows, cols, vals, sign):
        a.flags.writeable = False
    return _PairLayout(tuple(b.pair for b in ops), rows, cols, vals, sign)


def _check_vector(b: PairOperator, psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape[0] != b.m * b.n:
        raise ValueError(f"state has length {v.shape[0]}, expected {b.m * b.n}")
    return v


def tilde(b: PairOperator, psi) -> np.ndarray:
    """B @ conj(psi), computed from the four nonzero entries."""
    v = _check_vector(b, psi)
    out = np.zeros_like(v)
    for row, col, val in b.entries:
        out[row - 1] += val * np.conj(v[col - 1])
    return out


def pair_residual(b: PairOperator, psi) -> complex:
    """psi^dag B conj(psi) = 2 (conj(A[1,q] A[p,1]) - conj(A[1,1] A[p,q]))."""
    v = _check_vector(b, psi)
    return complex(np.vdot(v, tilde(b, v)))


def tau_matrix(x: ScaledEigvecs, b: PairOperator) -> np.ndarray:
    """Complex symmetric l x l matrix tau[i, j] = x_i^dag B conj(x_j)."""
    if x.vectors.shape[1] != b.m * b.n:
        raise ValueError(f"vectors have dimension {x.vectors.shape[1]}, operator needs {b.m * b.n}")
    rows, cols, vals = zip(*b.entries)
    xc = x.vectors.conj()
    tau = (xc[:, np.subtract(rows, 1)] * vals) @ xc[:, np.subtract(cols, 1)].T
    return (tau + tau.T) / 2.0
