"""Constructive ensembles: one pair's annihilating ensemble, the
product decomposition that a state's ranges pin down, and a PPT 2 x 3
state's decomposition by subtraction.

Given scaled eigenvectors x_i of rho and a pair operator B, a Takagi
factorization of tau rotates the x_i into a canonical basis y_i with
<y_i| B |conj(y_j)> = lambda_i delta_ij.  When lambda_1 <= lambda_2 + ...
the lambdas close a polygon in the complex plane, and mixing the y_j with
half the closure phases and the columns of a signed Hadamard-type matrix
yields 4k pure states z_i that reassemble rho while every <z_i|B|conj(z_i)>
vanishes.

The range route (P. Horodecki, Phys. Lett. A 232, 333 (1997)) works in
the real space V of Hermitian X with supp X in range(rho) and supp X^G in
range(rho^G), G the partial transpose.  Every term |ab><ab| of a product
decomposition lies in V, since its partial transpose |a b*><a b*| is a
term of rho^G; a rank-l state's terms span range(rho), so l of their
projectors are independent and a separable rho has dim V >= l.  So
dim V < l proves rho entangled.  dim V also bounds the number of terms:
rho lies in the cone of a decomposition's projectors inside V, so by
Caratheodory dim V of them suffice, and zero members pad them to any
larger count; so search.minimize walks k no further than max(l, dim V),
and not at all when dim V < l holds beyond RANGE_MARGIN.
When dim V = l those l projectors span V, so the l-term decomposition is
unique, and a generic Hermitian element of V, whitened by rho's spectrum,
has the terms as its eigenvectors.  The pipeline counts dim V from the
singular values of V's linear system alone; V's basis is built only when
dim V = l, the one case range_decomposition reads it.

In 2 x 3 and 3 x 2 every PPT state is separable, so a state the range
route leaves (full rank, or dim V > l) goes on to subtraction
(ppt_subtraction_decomposition): products of range(sigma) whose partial
conjugates lie in range(sigma^G) are subtracted with the largest weight
that keeps sigma PPT, until the kernels of sigma and sigma^G pose as many
conditions as b has components.  The remainder's range products are
then the roots of one polynomial in the qubit's chart coordinate, and a
least-squares fit over their projectors finishes the decomposition.  A
degenerate state whose kernels pose more conditions (I/6 ends at 4) is
refused and goes on to the search.  On larger shapes a PPT remainder
can be entangled and have no range product, so the route refuses them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import product_svd, scaled_eigvecs, takagi
from .pairs import PairIndex, _pair_layout, build_pair_operator, tau_matrix
from .states import (BOUNDARY_TOL, PRODUCT_TOL, RANGE_MARGIN, RANK_TOL, RECON_TOL, DensityMatrix,
                     _check_counts, _partial_transpose, partial_transpose)

__all__ = [
    "PolygonInfeasibleError",
    "PairCriterionError",
    "EnsembleReport",
    "a_value",
    "close_polygon",
    "sign_matrix",
    "single_pair_decomposition",
    "range_space",
    "range_decomposition",
    "ppt_subtraction_decomposition",
    "verify_ensemble",
]


class PolygonInfeasibleError(ValueError):
    """The largest length exceeds the sum of the others; no closed polygon exists."""


class PairCriterionError(ValueError):
    """The pair's a value is positive; no annihilating ensemble exists."""


def a_value(lambdas):
    """lambda_1 minus the sum of the remaining nonzero lambdas, per row.

    The lambdas run descending along the last axis, and those at or
    below RANK_TOL count as zero, so l' is the count above it and a row
    without one scores 0.  A batch gives an array, one row a float.
    """
    lam = np.asarray(lambdas, dtype=float)
    lam = np.where(lam > RANK_TOL, lam, 0.0)
    return lam[..., 0] - np.sum(lam[..., 1:], axis=-1)


def _triangle_apex(a: float, c: float, t: float) -> tuple[float, float]:
    """Apex angle alpha and the angle of the remainder t - a e^{i alpha} of
    the (a, c, t) triangle.

    Uses half-angle factors instead of the law-of-cosines quotient: the
    arccos form loses half the digits on needle triangles (c much smaller
    than nearly equal a and t), which the closure guarantee cannot afford.
    Requires t in [0.5, 1) and a >= c, as close_polygon's scaling leaves
    them, so no product overflows or underflows and den >= t^2 > 0.
    """
    u = a - t
    num = max((c - u) * (c + u), 0.0)
    den = (a + t + c) * ((a + t) - c)
    hyp = num + den
    alpha = 2.0 * math.atan2(math.sqrt(num), math.sqrt(den))
    sin_half2 = num / hyp
    sin_alpha = 2.0 * math.sqrt(sin_half2 * (den / hyp))
    return alpha, math.atan2(-a * sin_alpha, (t - a) + a * 2.0 * sin_half2)


def close_polygon(lengths) -> np.ndarray:
    """Phases phi_j such that sum_j lengths[j] exp(i phi_j) = 0.

    Requires max(lengths) <= sum of the others (within 1e-12 relative to
    the total); otherwise raises PolygonInfeasibleError.  Zero lengths
    and the longest get phase 0.  One triangle closes the polygon: sorted
    in descending order, the 2nd, 4th, ... lengths form arm A and the 3rd,
    5th, ... arm B, each arm sharing one phase.  Their sums satisfy a >= b
    and a - b <= 2nd <= longest <= a + b, so (longest, a, b) is a triangle.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or lengths.shape[0] == 0:
        raise ValueError("lengths must be a nonempty 1-d array")
    lengths = lengths.tolist()  # a handful of lengths: plain floats beat numpy's per-call cost
    if not all(0.0 <= v < math.inf for v in lengths):  # NaN fails too
        raise ValueError("lengths must be finite and nonnegative")
    phases = [0.0] * len(lengths)
    # Scaled by the longest one's power of two (exact), the longest lies in
    # [0.5, 1), so no sum overflows near the float maximum.
    e = -math.frexp(max(lengths))[1]
    scaled = [math.ldexp(v, e) for v in lengths]
    total = math.fsum(scaled)
    if total == 0.0:
        return np.array(phases)
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)  # stable
    ordered = [scaled[j] for j in order]
    excess = 2.0 * ordered[0] - total
    if excess > 1e-12 * total:
        raise PolygonInfeasibleError(
            f"longest length {math.ldexp(ordered[0], -e):.6g} exceeds the sum of the others "
            f"by {math.ldexp(excess, -e):.3e}")
    alpha, beta = _triangle_apex(math.fsum(ordered[1::2]), math.fsum(ordered[2::2]), ordered[0])
    arms = ((alpha + math.pi) % math.tau, (beta + math.pi) % math.tau)
    for i, j in enumerate(order[1:]):
        phases[j] = arms[i % 2] if lengths[j] > 0.0 else 0.0
    return np.array(phases)


@functools.lru_cache(maxsize=64, typed=True)  # typed: 1.0 must not hit 1's entry
def sign_matrix(k: int, l: int) -> np.ndarray:
    """First l columns of the 4k x 4k signed matrix with mutually orthogonal columns.

    The Sylvester-Hadamard matrix with its rows in bit-reversed order:
    entry (r, j), 1-based, is (-1)**popcount(bitrev(r-1) & (j-1)) over
    log2(4k) bits.  4k must be a power of two and at least max(4, l);
    the first column is all +1.  Built once per (k, l) and read-only.
    """
    _check_counts(k=k, l=l)
    rows = 4 * k
    if k < 1 or rows & (rows - 1) != 0:
        raise ValueError(f"4k must be a power of two, got 4k={rows}")
    if not 1 <= l <= rows:
        raise ValueError(f"need 1 <= l <= 4k, got l={l}, 4k={rows}")
    # Doubling [[S, S], [S, -S]] with its two row blocks interleaved puts
    # the new row bit lowest, which keeps the row order bit-reversed.
    # Only the first l columns are kept at each step: those of the doubled
    # matrix come from the first l of the one before.
    s = np.ones((1, 1), dtype=int)
    while s.shape[0] < rows:
        s = np.stack([np.hstack([s, s]), np.hstack([s, -s])], axis=1).reshape(2 * len(s), -1)
        s = s[:, :l].copy()
    s.flags.writeable = False
    return s


def single_pair_decomposition(rho: DensityMatrix, pair: PairIndex) -> np.ndarray:
    """Ensemble of 4k pure states reassembling rho with zero residual on one pair.

    The members are the rows of a complex (4k, m n) array; k is the
    smallest power of two with 4k >= max(4, l), l the rank.
    Requires the pair's a value <= BOUNDARY_TOL.  The polygon closed is
    that of the lambdas with lambda_1 trimmed to the sum of the rest, which
    changes nothing when a <= 0 and otherwise leaves each member a residual
    of at most a / (4k) on the pair.
    """
    x = scaled_eigvecs(rho)
    k = 1
    while 4 * k < x.count:
        k *= 2
    b = build_pair_operator(rho.m, rho.n, pair)
    t = takagi(tau_matrix(x, b))  # the rows of conj(t.v) x are the canonical basis y_i
    lam = t.lambdas
    a = a_value(lam)
    if a > BOUNDARY_TOL:
        raise PairCriterionError(
            f"pair ({pair.p}, {pair.q}) has a = {a:.3e} > {BOUNDARY_TOL:.1e}; "
            "no annihilating ensemble exists")
    theta = close_polygon([min(lam[0], lam[1:].sum()), *lam[1:]]) / 2.0
    coeff = sign_matrix(k, len(lam)) * (np.exp(1j * theta) / (2.0 * math.sqrt(k)))
    return coeff @ (t.v.conj() @ x.vectors)


def _spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """eigh of the Hermitian h, ascending, and how many eigenvalues (the
    first ones) are at most RANK_TOL: the columns of v before it span the
    kernel, the rest the range."""
    w, v = np.linalg.eigh(h)
    return w, v, int(np.count_nonzero(w <= RANK_TOL))


def range_space(rho: DensityMatrix) -> tuple[int, int, np.ndarray | None]:
    """dim V, the count beyond RANGE_MARGIN, and V's basis when dim V = l,
    for a rank-l state (V as in the module docstring).

    With E the unit eigenvectors of rho (in scaled_eigvecs' order and
    phases), V is the Hermitian C with X = E C E^H and X^G K = 0, K the
    kernel of rho^G (eigenvalues <= RANK_TOL).  Over complex C the
    conditions X^G K = 0 and K^H X^G = 0 give V's complexification, the
    null space of one linear map; dim V is l^2 minus the map's singular
    values above RANK_TOL, from one values-only SVD.  The second count is
    l^2 minus those above RANGE_MARGIN, or l^2 unless every kernel
    eigenvalue of rho^G is at most RANGE_MARGIN^2 times rho's least
    eigenvalue; it bounds dim V from above, so when it is below l,
    dim V < l holds robustly and no decomposition exists.  When dim V = l,
    the one case range_decomposition reads, the basis is that null space
    as an (l, l, l) stack of C, read-only, whose complex combinations'
    Hermitian parts span V; otherwise it is None.  When rho^G has no
    kernel every Hermitian C lies in V: both counts are l^2 and no SVD is
    taken.  Computed once per state and kept in rho's _range slot; the
    map itself is not kept.
    """
    if rho._range is not None:
        return rho._range
    x = scaled_eigvecs(rho)
    l, m, n = x.count, rho.m, rho.n
    w, v, zero = _spectrum(partial_transpose(rho))
    if not zero:
        object.__setattr__(rho, "_range", (l * l, l * l, None))
        return rho._range
    kernel = v[:, :zero].T.reshape(-1, m, n)
    # A kernel eigenvalue w_s leaves a product term of weight t an overlap
    # up to sqrt(w_s / t) with its eigenvector.  Unless that stays below
    # RANGE_MARGIN for t, rho's least eigenvalue, no count is robust.
    margin = RANGE_MARGIN if max(w[zero - 1], 0.0) <= RANGE_MARGIN ** 2 * x.values[-1] else np.inf
    e = (x.vectors / np.sqrt(x.values)[:, None]).reshape(l, m, n)
    # As m x n matrices, (e_j e_k^H)^G K_s is E_j K_s^T conj(E_k), and
    # K_s^H (e_j e_k^H)^G is the conjugate of its (k, j) entry.
    ek = e[:, None] @ kernel.swapaxes(1, 2)[None]
    a = (ek[:, None] @ e.conj()[None, :, None]).reshape(l, l, -1)
    a = np.concatenate([a, a.swapaxes(0, 1).conj()], axis=2).reshape(l * l, -1).T
    s = np.linalg.svd(a, compute_uv=False)
    dim = l * l - int(np.count_nonzero(s > RANK_TOL))
    basis = None
    if dim == l:
        # vh's rows past the rank span the null space of c -> a @ c; a wide
        # a (fewer than l^2 rows) needs the full SVD for them.
        vh = np.linalg.svd(a, full_matrices=a.shape[0] < l * l)[2]
        basis = vh[l * l - l:].conj().reshape(l, l, l)
        basis.flags.writeable = False
    object.__setattr__(rho, "_range", (dim, l * l - int(np.count_nonzero(s > margin)), basis))
    return rho._range


@functools.lru_cache(maxsize=64, typed=True)
def _range_coefficients(l: int) -> np.ndarray:
    """range_decomposition's seeded coefficients for rank l, built once, read-only."""
    coeff = np.random.default_rng(0).standard_normal((2, l))
    coeff = coeff[0] + 1j * coeff[1]
    coeff.flags.writeable = False
    return coeff


def range_decomposition(rho: DensityMatrix) -> np.ndarray:
    """The l product members of a rank-l state, when its ranges pin them.

    If dim V = l (range_space), the Hermitian part of a fixed seeded
    generic element of V is whitened by T^-1/2, T the eigenvalues, and
    its eigenvectors b_i give the members sum_j b_ji x_j, returned as the
    rows of a complex (l, m n) array.  They rebuild rho for any unitary
    b; search.certify checks that they are products.
    Raises ValueError, naming dim V, when range_space builds no basis;
    at dim V = l^2 the kernel of rho^G, if any, poses no condition.
    """
    x = scaled_eigvecs(rho)
    l = x.count
    dim, _, basis = range_space(rho)
    if basis is None:
        raise ValueError(f"dim V = l^2 = {dim}: the partial transpose's kernel poses no "
                         "condition on the range" if dim == l * l
                         else f"dim V = {dim}, the rank is {l}")
    c = (_range_coefficients(l) @ basis.reshape(l, l * l)).reshape(l, l)
    scale = 1.0 / np.sqrt(x.values)
    _, b = np.linalg.eigh(scale[:, None] * (c + c.conj().T) * scale[None, :])
    return b.T @ x.vectors


@functools.lru_cache(maxsize=1)
def _subtraction_draws() -> tuple[np.ndarray, np.ndarray]:
    """ppt_subtraction_decomposition's seeded chart of the qubit (a 2 x 2
    unitary) and its (3, 4) coefficients, one row per subtraction: the z
    of a = chart (1, z), then b's mixture of the null space.  Built once,
    read-only."""
    g = np.random.default_rng(0).standard_normal((2, 5, 4))
    g = g[0] + 1j * g[1]
    chart = np.linalg.qr(g[3:, :2])[0]
    for a in (chart, g):
        a.flags.writeable = False
    return chart, g[:3]


def _range_products(kc: np.ndarray, lc: np.ndarray) -> np.ndarray:
    """The unit products a x b, a along (1, z), with a^T kc_s b = 0 and
    conj(a)^T lc_s b = 0, for kc (c1, 2, 3) and lc (c2, 2, 3), c1 + c2 = 3.

    The conditions are M(z, conj(z)) b = 0, where row s of the 3 x 3
    M(z, w) is kc_s[0] + z kc_s[1] or lc_s[0] + w lc_s[1], so a product
    exists where g(z, w) = det M(z, w) vanishes at w = conj(z).  g has
    degree c1 in z and c2 in w, and its coefficients are the 2-d DFT of
    its values at roots of unity.  conj(g(z, conj(z))) = 0 is the same
    condition with the degrees swapped, so one of the two reads
    g0(z) + w g1(z) = 0 with d <= 2 the degree in z.  With
    w = conj(z) = -g0/g1, the conjugate equation
    conj(g0)(w) + z conj(g1)(w) = 0 times g1^d is one polynomial in z, of
    degree at most d^2 + 1 = 5.  Each root where M(z, conj(z)) is singular
    within PRODUCT_TOL gives a product, b spanning M's null space.  A g
    of degree 0 in w is its own polynomial, a cubic.
    """
    c1 = len(kc)
    rows = np.concatenate([kc, lc])
    n = rows.shape[0]
    on_sigma = (np.arange(n) < c1)[:, None]

    def matrices(z, w):  # M(z, w) for every (z, w) of the broadcast grid
        return rows[:, 0] + np.where(on_sigma, z[..., None, None], w[..., None, None]) * rows[:, 1]

    z, w = (np.exp(2j * np.pi * np.arange(d + 1) / (d + 1)) for d in (c1, n - c1))
    coeff = np.fft.fft2(np.linalg.det(matrices(z[:, None], w[None, :])))  # times (c1+1)(c2+1)
    if coeff.shape[1] > 2:
        coeff = coeff.conj().T
    g0 = coeff[:, 0]  # coefficients ascending in z, as are poly's
    if coeff.shape[1] == 1:
        poly = g0
    else:
        g1, d = coeff[:, 1], len(g0) - 1
        neg, pos = [np.ones(1)], [np.ones(1)]  # the powers of -g0 and g1
        for _ in range(d):
            neg.append(np.convolve(neg[-1], -g0))
            pos.append(np.convolve(pos[-1], g1))
        poly = np.zeros(d * d + 2, dtype=complex)
        for k in range(d + 1):
            f = np.convolve(neg[k], pos[d - k])  # (-g0)^k g1^(d-k), degree d^2
            poly[:-1] += np.conj(g0[k]) * f
            poly[1:] += np.conj(g1[k]) * f
    roots = np.roots(poly[::-1])
    _, s, vh = np.linalg.svd(matrices(roots, roots.conj()))
    keep = s[:, -1] <= PRODUCT_TOL * s[:, 0]
    a = np.stack([np.ones(len(roots)), roots], axis=1)[keep]
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return (a[:, :, None] * vh[keep, -1, None, :].conj()).reshape(len(a), -1)


def ppt_subtraction_decomposition(rho: DensityMatrix) -> np.ndarray:
    """A product decomposition of a PPT 2 x 3 or 3 x 2 state, its members
    the rows of a complex (k, 6) array.

    In 2 x 3 a state is separable exactly when its partial transpose is
    positive (Horodecki, Horodecki and Horodecki, Phys. Lett. A 223, 1
    (1996)).  With sigma = rho, each step subtracts lambda |ab><ab| for a
    product with |ab> in range(sigma) and |a conj(b)> in range(sigma^G),
    lambda = 1 / max(<ab|sigma^+|ab>, <a conj(b)|(sigma^G)^+|a conj(b)>),
    the most that keeps sigma and sigma^G positive (Kraus, Cirac, Karnas
    and Lewenstein, Phys. Rev. A 61, 062302 (2000)), so rank sigma +
    rank sigma^G falls by at least one.  The c kernel vectors of sigma and
    sigma^G are c linear conditions on b at a fixed a, so while c < 3 b
    comes from their null space at a seeded a.  At c = 3 sigma's range
    products are finite (_range_products finds them all), and sigma is
    fitted over their projectors by one least-squares solve.  A 3 x 2
    state runs with its factors swapped, and its members are swapped back.
    Raises ValueError on any other shape, on a partial transpose below
    -BOUNDARY_TOL, when c is not 3 after the subtractions, or when the fit
    has a negative weight or misses sigma by more than RECON_TOL;
    search.certify checks the rest.
    """
    if (rho.m, rho.n) not in ((2, 3), (3, 2)):
        raise ValueError(f"the subtraction route covers 2 x 3 and 3 x 2, not {rho.m} x {rho.n}")
    m, n = 2, 3
    sigma = rho.matrix if rho.m == 2 else rho.matrix.reshape(3, 2, 3, 2).transpose(
        1, 0, 3, 2).reshape(6, 6)
    chart, draws = _subtraction_draws()
    members = []
    while True:
        w, v, k = _spectrum(sigma)
        wg, vg, kg = _spectrum(_partial_transpose(sigma, m, n))
        if wg[0] < -BOUNDARY_TOL:
            raise ValueError(f"the partial transpose has eigenvalue {wg[0]:.3e}")
        # In the chart a = chart (1, z): (1, z) kc_s b = 0 and (1, conj(z)) lc_s b = 0.
        kc = chart.T @ v[:, :k].T.conj().reshape(k, m, n)
        lc = chart.conj().T @ vg[:, :kg].T.reshape(kg, m, n)
        c = k + kg
        if c >= n or len(members) == n:
            break
        z, mix = draws[len(members), 0], draws[len(members), 1:n + 1 - c]
        a = np.array([1.0, z])
        system = np.concatenate([a @ kc, a.conj() @ lc])
        b = mix @ (np.linalg.svd(system)[2][c:].conj() if c else np.eye(n))
        a = chart @ a
        psi, psi_g = np.kron(a, b), np.kron(a, b.conj())
        lam = 1.0 / max(np.sum(np.abs(v[:, k:].conj().T @ psi) ** 2 / w[k:]),
                        np.sum(np.abs(vg[:, kg:].conj().T @ psi_g) ** 2 / wg[kg:]))
        sigma = sigma - lam * np.outer(psi, psi.conj())
        members.append(np.sqrt(lam) * psi)
    if c != n:  # past n, generically no product; short of it after n steps, a rank stuck
        raise ValueError(f"the kernels pose {c} conditions on a product, not {n}")
    products = _range_products(kc, lc).reshape(-1, m, n)
    products = (chart @ products).reshape(len(products), -1)
    projectors = (products[:, :, None] * products[:, None, :].conj()).reshape(len(products), -1)
    lhs = np.concatenate([projectors.T.real, projectors.T.imag])
    rhs = np.concatenate([sigma.real.ravel(), sigma.imag.ravel()])
    weights = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    miss = float(np.linalg.norm(lhs @ weights - rhs))  # the Frobenius distance
    least = np.min(weights, initial=np.inf)
    if not (least >= 0.0 and miss <= RECON_TOL):
        raise ValueError(f"{len(products)} range products fit the remainder within {miss:.3e}, "
                         f"least weight {least:.3e}")
    z = np.concatenate([np.reshape(members, (-1, m * n)), np.sqrt(weights)[:, None] * products])
    if rho.m == 3:
        z = z.reshape(-1, m, n).swapaxes(1, 2).reshape(-1, m * n)
    return z


@dataclass(frozen=True, eq=False)
class EnsembleReport:
    """Verification summary for an ensemble against a state and its pairs."""

    reconstruction_error: float
    max_pair_residual: float
    member_product_errors: np.ndarray


def verify_ensemble(members, rho: DensityMatrix) -> EnsembleReport:
    """Reconstruction error, worst pair residual, and per-member product errors.

    The members are the rows of a complex (k, m n) array, as the closed
    forms return them, and every pair of rho's shape is checked, each by
    one gather per operator entry.  A member's product error is its second
    singular value relative to its first (0 for members of negligible
    norm).  Raises ValueError unless the members are a finite (k, m n) array.
    """
    z = np.asarray(members, dtype=complex)
    m, n = rho.m, rho.n
    if z.ndim != 2 or z.shape[1] != m * n:
        raise ValueError(f"members must be a (k, {m * n}) array, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("the members have a non-finite entry")
    recon = np.einsum("ia,ib->ab", z, z.conj())
    recon_err = float(np.linalg.norm(recon - rho.matrix))
    layout = _pair_layout(m, n)
    rows, cols, vals = layout.rows, layout.cols, layout.vals
    residuals = sum(vals[:, e] * np.conj(z[:, rows[:, e]] * z[:, cols[:, e]]) for e in range(4))
    product_errors = np.zeros(z.shape[0])
    s = product_svd(z, m, n)[1]
    np.divide(s[:, 1], s[:, 0], out=product_errors, where=s[:, 0] > 1e-12)
    return EnsembleReport(reconstruction_error=recon_err,
                          max_pair_residual=float(np.max(np.abs(residuals), initial=0.0)),
                          member_product_errors=product_errors)
