"""Numerical search for ensembles annihilating every pair operator at once.

Members are parametrized as |z_i> = sum_j u_ij |x_j> with u a k x l
matrix with orthonormal columns, so that sum_i |z_i><z_i| = rho holds
identically and the only freedom is u.  The joint objective

    F(u) = sum_r sum_i |<z_i| B^r |conj(z_i)>|^2
         = sum_r sum_i |(conj(u) tau^r conj(u).T)_ii|^2

is minimized by projected gradient descent on the orthonormal-column
manifold.  F(u) = 0 makes every member a candidate product state;
certify, which factors the members u @ x.vectors and checks every
certificate, is the only step that declares success.  A failed
search is never evidence of entanglement.

One loop runs each restart, for at most max_iters iterations: a
Barzilai-Borwein step with a nonmonotone (Zhang-Hager) backtracking
test, which takes about one trial point per iteration and converges
down to F ~ 1e-28.  F only sums the minors anchored at the first row
and column, so F ~ 0 does not make every member a product, and a
restart can also stall at F ~ 1e-6 near a decomposition.  A restart
that ends at F <= _POLISH_GATE without a certificate is polished in
product space (the products module) if its size is fitted (_walk); when
certify accepts the fit, the search stops as after an extraction.  On a
full-rank state the anchored F also vanishes on members that are not
products, so the rest of the budget only drives F towards 0 on points
that do not extract: there each restart is paused, the descent stopping
the first time it reaches _POLISH_GATE; the point is polished, and the
restart stops if the fit certifies; if not, the same descent resumes,
unchanged, to its end.  _walk alone decides which sizes are walked, in
what order, and which restarts are fitted or paused.
Each B^r has four nonzero entries, so a trial point is evaluated on its
members, not on the l x l taus: Zc = conj(u) conj(X) holds the
conjugated members, each pair residual is the sum of four products of
their entries, d = (Zc[:, rows] * Zc[:, cols]) @ sel, and the gradient
is ((conj(d) @ sel^T) * Zc[:, rows]) @ 4 conj(X)^T[cols], at
k l mn + 4 k P l operations per trial point in place of P k l^2.  An
accepted trial's gradient is carried into the next iteration.  A step
M = u - alpha t is retracted to its positive-diagonal QR factor by
Cholesky QR: for a tangent t the Gram matrix M^H M = I + alpha^2 t^H t
>= I, so its Cholesky factor L always exists with singular values >= 1,
and M L^-H is that factor (R = L^H), one l x l inverse per retraction.
joint_residual and residual_gradient keep the paper's definition on
the dense taus (pair_taus) as the reference.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .decompose import range_space
from .linalg import ScaledEigvecs, product_svd, random_orthonormal_columns, scaled_eigvecs
from .linalg import reorthonormalize  # noqa: F401 (traced by perfbench)
from .pairs import PairIndex, _pair_layout, pair_operators, tau_matrix
from .products import _POLISH_MAX_DIM, _polish
from .states import PRODUCT_TOL, RECON_TOL, STATE_TOL, DensityMatrix, _check_counts, format_float

__all__ = [
    "SearchConfig",
    "SearchReport",
    "SeparableCertificate",
    "CertificateError",
    "ConstraintSystem",
    "PairConstraints",
    "pair_taus",
    "joint_residual",
    "residual_gradient",
    "minimize",
    "extract_certificate",
    "certificate_from_members",
    "check_certificate",
    "certify",
    "emit_constraints",
    "render_constraints",
]


@dataclass
class SearchConfig:
    """Budget for the search.

    The ensemble sizes are the state's own: the search walks l, 2l, 4l, ...
    capped at max(l, dim V), for a state of rank l and the range space V
    of decompose.range_space, which loses no decomposition (see the
    decompose module docstring).  When dim V < l holds beyond RANGE_MARGIN
    no decomposition exists, and no size is walked.  A full-rank state
    walks only the sizes with a fit, interleaved restart by restart (see
    _walk), which changes no verdict: a restart depends only on its size
    and seed.  Each size runs `restarts` descents from random
    orthonormal starts seeded seed + restart index, each of at most
    max_iters iterations; restarts has no upper bound, since the walk
    builds no list of them.
    """

    restarts: int = 50
    max_iters: int = 2000
    seed: int = 0


@dataclass(frozen=True, eq=False)
class SeparableCertificate:
    """Explicit mixture of product states: weights and unit factor vectors."""

    m: int
    n: int
    weights: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    def density(self) -> np.ndarray:
        """sum_i w_i |a_i b_i><a_i b_i|, as one product of the kron rows."""
        psi = (self.alphas[:, :, None] * self.betas[:, None, :]).reshape(len(self.weights), -1)
        return (self.weights[:, None] * psi).T @ psi.conj()


class CertificateError(ValueError):
    """A member failed the product test (member_index) or the mixture check."""

    def __init__(self, message: str, member_index: int | None = None):
        super().__init__(message)
        self.member_index = member_index


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Best point found, its residual, the budget used, and the certificate if any.

    A certificate comes with the point, F and k of the restart that
    produced it (a fit's point in eigenbasis coordinates, members X^H / t);
    without one, the restarts merge by least residual, first-come on ties.
    rejected_extractions counts the points that reached _TOL_RESIDUAL but
    whose members failed the product test or the re-check, and
    polish_attempts the calls to _polish (see minimize).  restarts_used
    counts the restarts run, over every size walked (_walk).  range_dim is
    dim V (decompose.range_space), which caps the k walked.  When no size
    is walked, k is 0, best_residual is inf and best_u is an empty (0, l)
    array.
    """

    best_residual: float
    best_u: np.ndarray
    k: int
    restarts_used: int
    iterations_used: int
    certificate: SeparableCertificate | None
    rejected_extractions: int
    range_dim: int
    polish_attempts: int


def pair_taus(x: ScaledEigvecs, m: int, n: int) -> np.ndarray:
    """The (P, l, l) stack of every pair's tau_matrix, in enumeration order."""
    if not np.all(np.isfinite(x.vectors)):
        raise ValueError("the scaled eigenvectors have a non-finite entry")
    taus = [tau_matrix(x, b) for b in pair_operators(m, n)]
    return np.array(taus, dtype=complex).reshape(len(taus), x.count, x.count)


def _stack_taus(taus) -> np.ndarray:
    arr = np.asarray(taus, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected a list of square tau matrices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("the taus have a non-finite entry")
    return arr


def _check_u(u, l: int, orth_tol: float) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] != l:
        raise ValueError(f"u has shape {u.shape}, expected (k, {l})")
    if u.shape[0] < u.shape[1]:
        raise ValueError(f"u needs at least as many rows as columns, got {u.shape}")
    if not np.linalg.norm(u.conj().T @ u - np.eye(l)) <= orth_tol:  # NaN fails too
        raise ValueError("u does not have orthonormal columns within tolerance")
    return u


def _tau_objective_and_gradient(u: np.ndarray, taus: np.ndarray) -> tuple[float, np.ndarray]:
    """F(u) and its Euclidean gradient on the dense taus, the reference definition."""
    w = u.conj()
    wt = w @ taus
    d = np.einsum("ril,il->ri", wt, w)
    return float(np.vdot(d, d).real), 4.0 * np.einsum("ri,ril->il", d.conj(), wt)


def joint_residual(u, taus) -> float:
    """F(u) = sum_r sum_i |<z_i| B^r |conj(z_i)>|^2, for u orthonormal within 1e-3."""
    taus = _stack_taus(taus)
    return _tau_objective_and_gradient(_check_u(u, taus.shape[1], 1e-3), taus)[0]


def residual_gradient(u, taus) -> np.ndarray:
    """Euclidean gradient of joint_residual with respect to u.

    For a direction d, the directional derivative equals
    Re(vdot(d, residual_gradient(u))); validated against central finite
    differences.
    """
    taus = _stack_taus(taus)
    return _tau_objective_and_gradient(_check_u(u, taus.shape[1], 1e-3), taus)[1]


@dataclass(frozen=True, eq=False)
class _MemberKernel:
    """One state's pair residuals as functions of the members.

    xc is conj(X), l x mn; index holds the rows, then the columns, of
    every pair's four entries (8P); sel (4P x P) sums entry (r, e)'s
    product into pair r with its value; xg is 4 conj(X)^T[cols], 4P x l.
    """

    xc: np.ndarray
    index: np.ndarray
    sel: np.ndarray
    xg: np.ndarray


def _member_kernel(x: ScaledEigvecs, m: int, n: int) -> _MemberKernel:
    """The kernel of x's members on the pairs of an m x n system, built once per state."""
    layout = _pair_layout(m, n)
    cols = layout.cols.ravel()
    entries = cols.size
    sel = np.zeros((entries, len(layout.pairs)), dtype=complex)
    sel[np.arange(entries), np.arange(entries) // 4] = layout.vals.ravel()
    xc = x.vectors.conj()
    return _MemberKernel(xc=xc, index=np.concatenate([layout.rows.ravel(), cols]),
                         sel=sel, xg=4.0 * xc.T[cols])


def _objective_and_gradient(u: np.ndarray,
                            kernel: _MemberKernel) -> tuple[float, np.ndarray, np.ndarray]:
    """F(u), its Euclidean gradient and conj(u), from the members conj(u) conj(X)."""
    w = u.conj()
    zc = (w @ kernel.xc)[:, kernel.index]
    half = zc.shape[1] // 2
    at_rows, at_cols = zc[:, :half], zc[:, half:]
    d = (at_rows * at_cols) @ kernel.sel
    g = ((d.conj() @ kernel.sel.T) * at_rows) @ kernel.xg
    return float(np.vdot(d, d).real), g, w


def _tangent_project(u: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project g onto the tangent space at u, given w = conj(u)."""
    utg = w.T @ g
    return g - u @ ((utg + utg.conj().T) / 2.0)


def _retract(m: np.ndarray) -> np.ndarray:
    """Cholesky QR; its eps ||m||^2 orthonormality error makes a long step take two passes."""
    q = m @ np.linalg.inv(np.linalg.cholesky(m.conj().T @ m)).conj().T
    return _retract(q) if np.vdot(m, m).real > 2 * m.shape[1] else q


# Line search: sufficient-decrease constant, backtracking factor, first
# trial step, and the step below which no step is acceptable.
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_STEP_INIT = 1.0
_STEP_MIN = 1e-14
# Weight of the past in the Zhang-Hager reference value of the line search.
_NONMONOTONE_ETA = 0.85
# A restart that ends at F <= _TOL_RESIDUAL goes to certificate extraction.
_TOL_RESIDUAL = 1e-10
# A restart that ends at F <= _POLISH_GATE without a certificate goes to
# _polish; the gate only picks starting points, never evidence for a verdict.
_POLISH_GATE = 1e-4


def _descend(u: np.ndarray, kernel: _MemberKernel, max_iters: int,
             gate: float | None = None) -> Iterator[tuple[np.ndarray, float, int]]:
    """Projected gradient descent with Barzilai-Borwein steps.

    From the second iteration the trial step is BB2, s.y / y.y with
    s = -alpha_prev t_prev and y = t - t_prev, clamped to [1e-10, 1e6].
    Backtracking accepts it against the Zhang-Hager average C of past
    residuals rather than the last one, so the short BB steps survive
    the occasional rise in F.  Stops at F <= 1e-28, |t| <= 1e-16, when
    no step is acceptable, or after max_iters iterations.

    A generator of (u, F, iterations): it yields the end point last, and,
    with gate given, also pauses once, at the start of the first
    iteration that begins at F <= gate and goes on to a line search; that
    iteration counts, as it would if the descent stopped there.  Resuming
    after the pause changes nothing: the end point and its count are the
    same with or without the gate.
    """
    f, g, w = _objective_and_gradient(u, kernel)
    c, q = f, 1.0
    alpha = _STEP_INIT
    t_prev = None
    iters = 0
    for iters in range(1, max_iters + 1):
        if f <= 1e-28:
            break
        t = _tangent_project(u, g, w)
        tnorm2 = float(np.vdot(t, t).real)
        if tnorm2 <= 1e-32:
            break
        if gate is not None and f <= gate:
            gate = None
            yield u, f, iters
        if t_prev is not None:
            # With s = -alpha t_prev and y = t - t_prev, only Re<t_prev, t> is new.
            cross = float(np.vdot(t_prev, t).real)
            sy = alpha * (prev_norm2 - cross)
            yy = tnorm2 - 2.0 * cross + prev_norm2
            if sy > 0.0 and yy > 0.0:
                alpha = min(max(sy / yy, 1e-10), 1e6)
        while alpha >= _STEP_MIN:
            try:
                u_try = _retract(u - alpha * t)
            except np.linalg.LinAlgError:
                alpha *= _SHRINK
                continue
            f_try, g_try, w_try = _objective_and_gradient(u_try, kernel)
            if f_try <= c - _ARMIJO_C * alpha * tnorm2:
                u, f, g, w = u_try, f_try, g_try, w_try
                t_prev, prev_norm2 = t, tnorm2
                q_next = _NONMONOTONE_ETA * q + 1.0
                c = (_NONMONOTONE_ETA * q * c + f) / q_next
                q = q_next
                break
            alpha *= _SHRINK
        else:  # no trial step was accepted
            break
    yield u, f, iters


def _walk(l: int, range_dim: int, dim_bound: int, m: int, n: int,
          restarts: int) -> Iterator[tuple[int, int, bool, bool]]:
    """The restarts of a rank-l m x n state in run order, lazily, as
    (k, seed index, fitted, paused).

    The sizes are l, 2l, 4l, ... capped at max(l, range_dim) (see the
    decompose module docstring), and none when dim_bound, dim V counted
    beyond RANGE_MARGIN (decompose.range_space), is below l: then no
    decomposition exists.  Up to mn = _POLISH_MAX_DIM, a restart is fitted
    at k = l where 2k(m + n - 1) > l^2, against the l^2 real equations of
    a Hermitian operator on range(rho), and at k = 2l at full rank.  Each
    rule is measured, not a parameter count: a member v_i v_i^H has
    2(m + n) - 3 real parameters, which makes k = l square at full-rank
    3 x 3 and at 3 x 4 rank 11, yet dropping those fits loses a
    certificate of the completeness sweep; no fit certified at k > 2l,
    nor at k = 2l below full rank (see CHANGES.md).

    Each size runs its restarts in turn, except at full rank up to
    mn = _POLISH_MAX_DIM: there only the fitted sizes are walked, every
    restart paused (see the module docstring), 2l and l interleaved
    restart by restart: 2l certifies far more often, yet some states only
    at l.  A restart's work depends only on its size and seed, so the
    order moves which certificate comes first, never whether one does.
    """
    if dim_bound < l:
        return
    cap = max(l, range_dim)
    sizes = [l]
    while sizes[-1] < cap:
        sizes.append(min(2 * sizes[-1], cap))
    small = m * n <= _POLISH_MAX_DIM
    fit_l = small and 2 * l * (m + n - 1) > l * l
    if small and l == m * n:
        sizes = [k for k in sizes[::-1] if k == 2 * l or (k == l and fit_l)]
        yield from ((k, i, True, True) for i in range(restarts) for k in sizes)
    else:
        yield from ((k, i, k == l and fit_l, False) for k in sizes for i in range(restarts))


def minimize(rho: DensityMatrix, config: SearchConfig | None = None) -> SearchReport:
    """Search for an annihilating u; deterministic for fixed (rho, config).

    Runs one descent per restart of _walk, in its order, from the seeded
    random start of the restart's size and seed index.  With dim V < l
    beyond RANGE_MARGIN (see decompose.range_space) the walk is empty, and
    no kernel is built.  A restart that ends at F <= _TOL_RESIDUAL goes to
    extraction (a failure counts as rejected), and a fitted one that ends
    at F <= _POLISH_GATE without a certificate is polished, a paused one
    also at its pause (see the module docstring).  The first restart to
    certify ends the search with its own point, F and k; without a
    certificate, the restart of least residual is reported, first-come on
    ties.  With no pairs (a one-dimensional factor) the eigen-ensemble
    (u = I) is the certificate.  Raises ValueError when config is not a
    SearchConfig, a budget field is not an integer, restarts or max_iters
    is below 1 or seed is negative.
    """
    if not isinstance(config, SearchConfig | None):
        raise ValueError(f"config must be a SearchConfig, got {type(config).__name__}")
    cfg = config or SearchConfig()
    _check_counts(**vars(cfg))
    if cfg.restarts < 1 or cfg.max_iters < 1:
        raise ValueError(f"restarts and max_iters must be >= 1: {cfg.restarts}, {cfg.max_iters}")
    x = scaled_eigvecs(rho)
    l = x.count
    range_dim, dim_bound, _ = range_space(rho)
    if not _pair_layout(rho.m, rho.n).pairs:
        certificate = certify(x.vectors, rho)
        return SearchReport(best_residual=0.0, best_u=np.eye(l, dtype=complex), k=l,
                            restarts_used=0, iterations_used=0, certificate=certificate,
                            rejected_extractions=int(certificate is None),
                            range_dim=range_dim, polish_attempts=0)

    best_f = np.inf
    best_u = np.zeros((0, l), dtype=complex)
    best_k = 0
    restarts_used = 0
    iterations_used = 0
    rejected = 0
    polished = 0
    kernel = None
    for k, i, fitted, paused in _walk(l, range_dim, dim_bound, rho.m, rho.n, cfg.restarts):
        kernel = kernel or _member_kernel(x, rho.m, rho.n)  # only once a restart runs
        restarts_used += 1
        u0 = random_orthonormal_columns(k, l, cfg.seed + i)
        for u, f, iters in _descend(u0, kernel, cfg.max_iters, _POLISH_GATE if paused else None):
            z = u @ x.vectors
            certificate = certify(z, rho) if f <= _TOL_RESIDUAL else None
            if f <= _TOL_RESIDUAL and certificate is None:
                rejected += 1
            if certificate is None and f <= _POLISH_GATE and fitted:
                polished += 1
                members = _polish(z, rho.matrix, rho.m, rho.n)
                certificate = None if members is None else certify(members, rho)
                if certificate is not None:  # report the fitted ensemble
                    u = members @ x.vectors.conj().T / x.values
                    f = _objective_and_gradient(u, kernel)[0]
            if certificate is not None:
                return SearchReport(best_residual=f, best_u=u, k=k, restarts_used=restarts_used,
                                    iterations_used=iterations_used + iters,
                                    certificate=certificate, rejected_extractions=rejected,
                                    range_dim=range_dim, polish_attempts=polished)
        iterations_used += iters
        if f < best_f:
            best_f, best_u, best_k = f, u, k
    return SearchReport(best_residual=best_f, best_u=best_u, k=best_k,
                        restarts_used=restarts_used, iterations_used=iterations_used,
                        certificate=None, rejected_extractions=rejected,
                        range_dim=range_dim, polish_attempts=polished)


def certificate_from_members(members: np.ndarray, m: int, n: int) -> SeparableCertificate:
    """Factor unnormalized pure states into (weight, alpha, beta) triples.

    Each member's coefficient matrix must be rank 1 within PRODUCT_TOL
    (product_svd's s2/s1, 0 with a one-dimensional factor); members of
    negligible weight are dropped; a non-finite member is a CertificateError.
    Members that are not a (k, m*n) array raise ValueError.
    """
    members = np.ascontiguousarray(members, dtype=complex)
    if members.ndim != 2 or members.shape[1] != m * n:
        raise ValueError(f"members must be a (k, {m * n}) array, got shape {members.shape}")
    if not np.isfinite(members).all():
        raise CertificateError("the members have a non-finite entry")
    weights = np.einsum("ij,ij->i", members.view(float), members.view(float))  # |z_i|^2
    alphas, s, betas = product_svd(members, m, n)
    keep = weights > 1e-14
    bad = keep & (s[:, 1] > PRODUCT_TOL * s[:, 0])
    if bad.any():
        i = int(bad.argmax())  # the first offender
        raise CertificateError(
            f"member {i} is not a product state: s2/s1 = {s[i, 1] / s[i, 0]:.3e}",
            member_index=i)
    if not keep.any():
        raise CertificateError("all members have negligible weight")
    return SeparableCertificate(m=m, n=n, weights=weights[keep],
                                alphas=alphas[keep], betas=betas[keep])


def check_certificate(cert: SeparableCertificate, rho_matrix: np.ndarray) -> None:
    """Assert the weights sum to rho's trace and the mixture rebuilds rho.

    The sum must match within STATE_TOL and the mixture within RECON_TOL.
    The target is rho's own trace, not 1: a valid state's trace is 1 only
    within STATE_TOL, and an exact decomposition's weights sum to its
    positive eigenvalues.  A rho of another dimension is refused first.
    """
    d = cert.m * cert.n
    if np.shape(rho_matrix) != (d, d):
        raise CertificateError(f"the {cert.m} x {cert.n} certificate rebuilds a {d} x {d} "
                               f"matrix, not one of shape {np.shape(rho_matrix)}")
    total = float(cert.weights.sum())
    trace = float(np.trace(rho_matrix).real)
    if not abs(total - trace) <= STATE_TOL:  # NaN fails too
        raise CertificateError(f"weights sum to {total:.12g}, expected the trace {trace:.12g}")
    err = float(np.linalg.norm(cert.density() - rho_matrix))
    if not err <= RECON_TOL:
        raise CertificateError(f"certificate reassembles rho only within {err:.3e}")


def extract_certificate(u, x: ScaledEigvecs, m: int, n: int) -> SeparableCertificate:
    """Certificate from the members |z_i> = sum_j u_ij |x_j>, unchecked
    against the state; certify(u @ x.vectors, rho) checks it."""
    u = _check_u(u, x.count, 1e-8)
    return certificate_from_members(u @ x.vectors, m, n)


def certify(members, rho: DensityMatrix):
    """The certificate the members factor into if it rebuilds rho, else None.

    The members are the rows of a complex (k, m*n) array; every route,
    the search included, hands its own.  Every certificate sepkit
    reports comes from here, checked by check_certificate.  Members that
    are not a (k, m*n) array raise ValueError rather than return None.
    """
    try:
        cert = certificate_from_members(members, rho.m, rho.n)
        check_certificate(cert, rho.matrix)
    except CertificateError:
        return None
    return cert


@dataclass(frozen=True)
class PairConstraints:
    """One pair's quadratic equation sum_{j<=j'} w_jj' u_j u_j' = 0."""

    pair: PairIndex
    terms: tuple[tuple[int, int, complex], ...]


@dataclass(frozen=True)
class ConstraintSystem:
    """Per-pair quadratic constraints every member row of u must satisfy."""

    m: int
    n: int
    count: int
    pairs: tuple[PairConstraints, ...]


def emit_constraints(x: ScaledEigvecs, m: int, n: int) -> ConstraintSystem:
    """Constraint system over the rows of u: w_jj' = (2 - delta_jj') tau_jj'.

    A system with a one-dimensional factor has no pairs and so no constraints.
    """
    j, jp = np.triu_indices(x.count)
    double = np.where(j == jp, 1.0, 2.0)
    systems = []
    for b, tau in zip(pair_operators(m, n), pair_taus(x, m, n)):
        w = double * tau[j, jp]
        keep = np.abs(w) > 1e-12 * max(1.0, float(np.max(np.abs(tau))))
        terms = zip((j[keep] + 1).tolist(), (jp[keep] + 1).tolist(), w[keep].tolist())
        systems.append(PairConstraints(pair=b.pair, terms=tuple(terms)))
    return ConstraintSystem(m=m, n=n, count=x.count, pairs=tuple(systems))


def render_constraints(cs: ConstraintSystem) -> str:
    """Text export, one record per pair, coefficients scaled by the largest magnitude."""
    lines = []
    for r, pc in enumerate(cs.pairs, start=1):
        lines.append(f"pair {r}: {pc.pair.p} {pc.pair.q}")
        scale = max((abs(w) for _, _, w in pc.terms), default=1.0)
        for j, jp, w in pc.terms:
            wn = w / scale
            lines.append(f"{j} {jp} {format_float(wn.real)} {format_float(wn.imag)}")
    return "".join(line + "\n" for line in lines)
