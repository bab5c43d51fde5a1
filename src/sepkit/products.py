"""Product-space fit of a search point's members, the polish (_polish).

Levenberg-Marquardt fits sum_i (a_i x b_i)(a_i x b_i)^H to rho over
product members a_i (x) b_i; its J J^T is (mn)^2 x (mn)^2 whatever the
number of members, and is assembled from two Gram products over the
members, written block by block into it (_polish_gram).  A step damps a
copy of J J^T and solves it once; the steps rejected after it reuse J J^T.
The search decides which of its points are fitted (search._walk), none
above mn = _POLISH_MAX_DIM.
"""

import numpy as np

from .linalg import product_svd

__all__ = []

# Polish: at most _POLISH_STEPS Levenberg-Marquardt steps, the first damped
# by _POLISH_DAMPING ||r||; members go to certify once ||r||_F <=
# _POLISH_FLOOR, which keeps their weights' sum within 1e-10 of tr rho; a
# fit whose last _POLISH_WINDOW steps cut ||r|| by less than _POLISH_DROP
# has stalled and stops.
_POLISH_STEPS = 80
_POLISH_DAMPING = 1e-3
_POLISH_FLOOR = 1e-12
_POLISH_WINDOW = 8
_POLISH_DROP = 1.2
# J J^T has (mn)^4 entries and a step solves it in about (mn)^6 flops: at
# mn = 20 it takes 1.3 MB, and a step took about 2.3 ms for the solve plus
# 0.8 ms for J J^T on one BLAS thread, with a tracemalloc peak of 2.5 MiB
# (J J^T and its damped copy); at 8 x 8, 134 MB and seconds.  Larger
# systems are not polished.
_POLISH_MAX_DIM = 20


def _product_residual(a: np.ndarray, b: np.ndarray,
                      rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The members a_i (x) b_i, r = sum_i v_i v_i^H - rho and ||r||_F."""
    v = (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)
    r = v.T @ v.conj() - rho
    return v, r, float(np.linalg.norm(r))


def _polish_gram(a: np.ndarray, b: np.ndarray, v: np.ndarray, m: int, n: int) -> np.ndarray:
    """J J^T of r(a, b) in the real coordinates h = Re Y + Im Y of a Hermitian Y.

    J^T Y is, per member, 2 mat(Y v_i) conj(b_i) for a_i and
    2 mat(Y v_i)^T conj(a_i) for b_i, so J J^T Y = 2 sum_i (Q_i Y V_i +
    V_i Y Q_i) with V_i = v_i v_i^H and Q_i = a_i a_i^H (x) I + I (x) b_i b_i^H.
    On row-major vec that is L = 2 (T + T'), T = sum_i Q_i (x) conj(V_i), T'
    its conjugate with both index pairs swapped.  The sums over members are
    two Gram products, of the (k, m d) rows a_ij conj(v_ir) and the (k, n d)
    rows b_ik conj(v_ir) (d = mn), scaled by the 2 in L and written as
    blocks onto the diagonals that the identities in Q_i leave; no
    per-member (d, d) array is formed.  L is complex-linear and commutes
    with Y -> Y^H, so in the coordinates h, an isometry onto the Hermitian
    matrices, it is the symmetric d^2 x d^2 matrix Re L + (Im L) P, with P
    transposing the column index pair: each block lands in one of four
    layouts of the result.  Two of them swap the column pair, and get the
    Gram products stored column-swapped, so that every write reads its
    block in the order it writes it.
    """
    k, d = v.shape
    vc = v.conj()
    wa = (a[:, :, None] * vc[:, None, :]).reshape(k, m * d)
    wb = (b[:, :, None] * vc[:, None, :]).reshape(k, n * d)
    ga = 2.0 * (wa.T @ wa.conj()).reshape(m, d, m, d)  # (j, r, J, s)
    gb = 2.0 * (wb.T @ wb.conj()).reshape(n, d, n, d)  # (k, r, K, s)
    ga_swapped = ga.transpose(0, 1, 3, 2).copy()  # (j, r, s, J)
    gb_swapped = gb.transpose(0, 1, 3, 2).copy()  # (k, r, s, K)
    gram = np.zeros((d, d, d, d))
    # Q_i's row (j, k) and column (J, K), V_i's r and s; ga lands where
    # k = K, gb where j = J.  Re T:
    block = gram.reshape(m, n, d, m, n, d)
    np.einsum("jkrJks->kjrJs", block)[...] = ga.real
    np.einsum("jkrjKs->jkrKs", block)[...] += gb.real
    # (Im T) P:
    block = gram.reshape(m, n, d, d, m, n)
    np.einsum("jkrsJk->kjrsJ", block)[...] += ga_swapped.imag
    np.einsum("jkrsjK->jkrsK", block)[...] += gb_swapped.imag
    # Re T':
    block = gram.reshape(d, m, n, d, m, n)
    np.einsum("rjksJk->kjrsJ", block)[...] += ga_swapped.real
    np.einsum("rjksjK->jkrsK", block)[...] += gb_swapped.real
    # (Im T') P, T' having Im T with both pairs swapped and negated:
    block = gram.reshape(d, m, n, m, n, d)
    np.einsum("rjkJks->kjrJs", block)[...] -= ga.imag
    np.einsum("rjkjKs->jkrKs", block)[...] -= gb.imag
    return gram.reshape(d * d, d * d)


def _polish_stalled(norms: list[float]) -> bool:
    """Whether the last _POLISH_WINDOW steps cut ||r|| by less than _POLISH_DROP."""
    return len(norms) > _POLISH_WINDOW and norms[-1 - _POLISH_WINDOW] < _POLISH_DROP * norms[-1]


def _polish(z: np.ndarray, rho: np.ndarray, m: int, n: int) -> np.ndarray | None:
    """Members a_i (x) b_i that rebuild rho within _POLISH_FLOOR, fitted from z; else None.

    Each member z_i is snapped to its leading product sqrt(s1) alpha_i (x)
    sqrt(s1) beta_i (product_svd), then Levenberg-Marquardt runs on
    r = sum_i v_i v_i^H - rho over the complex a_i and b_i, with the
    damped minimum-norm step -J^T (J J^T + lambda I)^-1 r in the real
    coordinates of _polish_gram: J J^T is d^2 x d^2 for d = mn, whatever
    the number of members.  lambda = mu ||r||; mu halves after a step that
    lowers ||r|| and quadruples after one that does not, which reuses J J^T:
    lambda goes onto the diagonal of a copy.
    Stops at _POLISH_FLOOR, after _POLISH_STEPS steps, or once
    _polish_stalled.  The members still go through certify.
    """
    alphas, s, betas = product_svd(z, m, n)
    root = np.sqrt(s[:, :1])
    a, b = root * alphas, root * betas
    d = m * n
    v, r, norm = _product_residual(a, b, rho)
    rhs = (r.real + r.imag).ravel()
    norms = [norm]
    mu, gram = _POLISH_DAMPING, None
    for _ in range(_POLISH_STEPS):
        if norm <= _POLISH_FLOOR:
            return v
        if _polish_stalled(norms):
            return None
        if gram is None:
            gram = _polish_gram(a, b, v, m, n)
        damped = gram.copy()
        damped.reshape(-1)[::d * d + 1] += mu * norm
        try:
            h = np.linalg.solve(damped, rhs)
        except np.linalg.LinAlgError:  # singular to working precision
            return None
        h = h.reshape(d, d)
        yv = (v @ ((h + h.T) / 2.0 - 0.5j * (h - h.T))).reshape(-1, m, n)  # rows Y v_i
        a_try = a - 2.0 * np.einsum("ijk,ik->ij", yv, b.conj())
        b_try = b - 2.0 * np.einsum("ijk,ij->ik", yv, a.conj())
        v_try, r_try, norm_try = _product_residual(a_try, b_try, rho)
        if norm_try < norm:
            a, b, v, norm = a_try, b_try, v_try, norm_try
            rhs = (r_try.real + r_try.imag).ravel()
            mu, gram = mu / 2.0, None
        else:
            mu *= 4.0
        norms.append(norm)
    return v if norm <= _POLISH_FLOOR else None
