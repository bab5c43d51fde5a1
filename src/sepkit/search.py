"""Numerical search for ensembles annihilating every pair operator at once.

Members are parametrized as |z_i> = sum_j u_ij |x_j> with u a k x l
matrix with orthonormal columns, so that sum_i |z_i><z_i| = rho holds
identically and the only freedom is u.  The joint objective

    F(u) = sum_r sum_i |<z_i| B^r |conj(z_i)>|^2
         = sum_r sum_i |(conj(u) tau^r conj(u).T)_ii|^2

is minimized by projected gradient descent on the orthonormal-column
manifold.  F(u) = 0 makes every member a candidate product state; the
certificate extractor factors the members and is the only step that
declares success.  A failed search is never evidence of entanglement.

One loop runs each restart, for at most max_iters iterations: a
Barzilai-Borwein step with a nonmonotone (Zhang-Hager) backtracking
test, which takes about one trial point per iteration and converges
down to F ~ 1e-28, so no separate polish phase precedes extraction.
Each trial point costs one batched product wt = conj(u) @ taus, which
gives F and its gradient together; an accepted trial's gradient is
carried into the next iteration.  A step M = u - alpha t is retracted to
its positive-diagonal QR factor by Cholesky QR: for a tangent t the Gram
matrix M^H M = I + alpha^2 t^H t >= I, so its Cholesky factor L always
exists with singular values >= 1, and M L^-H is that factor (R = L^H).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .criterion import PRODUCT_TOL, RECON_TOL, ScaledEigvecs, pair_taus, scaled_eigvecs
from .criterion import tau_matrix  # noqa: F401 (traced by perfbench)
from .decompose import MemberCountError
from .linalg import product_svd, random_orthonormal_columns, reorthonormalize  # noqa: F401
from .pairs import PairIndex, pair_operators
from .states import STATE_TOL, DensityMatrix, format_float

__all__ = [
    "SearchConfig",
    "SearchReport",
    "SeparableCertificate",
    "CertificateError",
    "ConstraintSystem",
    "PairConstraints",
    "joint_residual",
    "residual_gradient",
    "minimize",
    "extract_certificate",
    "certificate_from_members",
    "check_certificate",
    "certify",
    "emit_constraints",
    "render_constraints",
    "evaluate_constraints",
]


@dataclass
class SearchConfig:
    """Budget for the search.

    k = None walks the schedule l, 2l, 4l, ... capped at l^2, for a state
    of rank l; an explicit k runs that single ensemble size, clipped to
    l^2.  Each size runs `restarts` descents from random orthonormal
    starts seeded seed + restart index, each of at most max_iters
    iterations.

    The cap loses no decomposition: every product vector of one lies in
    range(rho), so their projectors span at most the l^2 real dimensions
    of the Hermitian operators on that range, and by Caratheodory l^2 of
    them suffice.  Zero members pad such a mixture to any k >= l^2.
    """

    k: int | None = None
    restarts: int = 50
    max_iters: int = 2000
    seed: int = 0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SearchReport:
    """Best point found, its residual, the budget used, and the certificate if any.

    rejected_extractions counts the restarts that reached _TOL_RESIDUAL
    but whose members failed the product test or the re-check.
    """

    best_residual: float
    best_u: np.ndarray
    k: int
    restarts_used: int
    iterations_used: int
    certificate: SeparableCertificate | None
    rejected_extractions: int


def _stack_taus(taus) -> np.ndarray:
    arr = np.asarray(taus, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected a list of square tau matrices, got shape {arr.shape}")
    return arr


def _check_u(u, l: int, orth_tol: float) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] != l:
        raise ValueError(f"u has shape {u.shape}, expected (k, {l})")
    if u.shape[0] < u.shape[1]:
        raise ValueError(f"u needs at least as many rows as columns, got {u.shape}")
    if np.linalg.norm(u.conj().T @ u - np.eye(l)) > orth_tol:
        raise ValueError("u does not have orthonormal columns within tolerance")
    return u


def _objective_and_gradient(u: np.ndarray,
                            taus: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """F(u), its Euclidean gradient and conj(u), from one batched product."""
    w = u.conj()
    wt = w @ taus
    d = np.einsum("ril,il->ri", wt, w)
    return float(np.vdot(d, d).real), 4.0 * np.einsum("ri,ril->il", d.conj(), wt), w


def joint_residual(u, taus) -> float:
    """F(u) = sum_r sum_i |<z_i| B^r |conj(z_i)>|^2, for u orthonormal within 1e-3."""
    taus = _stack_taus(taus)
    return _objective_and_gradient(_check_u(u, taus.shape[1], 1e-3), taus)[0]


def residual_gradient(u, taus) -> np.ndarray:
    """Euclidean gradient of joint_residual with respect to u.

    For a direction d, the directional derivative equals
    Re(vdot(d, residual_gradient(u))); validated against central finite
    differences.
    """
    taus = _stack_taus(taus)
    return _objective_and_gradient(_check_u(u, taus.shape[1], 1e-3), taus)[1]


def _tangent_project(u: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project g onto the tangent space at u, given w = conj(u)."""
    utg = w.T @ g
    return g - u @ ((utg + utg.conj().T) / 2.0)


def _retract(m: np.ndarray) -> np.ndarray:
    """Cholesky QR; its eps ||m||^2 orthonormality error makes a long step take two passes."""
    mh = m.conj().T
    q = np.linalg.solve(np.linalg.cholesky(mh @ m), mh).conj().T
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


def _descend(u: np.ndarray, taus: np.ndarray, max_iters: int) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent with Barzilai-Borwein steps.

    From the second iteration the trial step is BB2, s.y / y.y with
    s = -alpha_prev t_prev and y = t - t_prev, clamped to [1e-10, 1e6].
    Backtracking accepts it against the Zhang-Hager average C of past
    residuals rather than the last one, so the short BB steps survive
    the occasional rise in F.  Stops at F <= 1e-28, |t| <= 1e-16, when
    no step is acceptable, or after max_iters iterations.
    """
    f, g, w = _objective_and_gradient(u, taus)
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
            f_try, g_try, w_try = _objective_and_gradient(u_try, taus)
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
    return u, f, iters


def _k_schedule(cfg: SearchConfig, l: int, cap: int) -> list[int]:
    if cfg.k is not None:
        if cfg.k < l:
            raise MemberCountError(f"k = {cfg.k} is below the rank l = {l}")
        return [min(cfg.k, cap)]
    ks = []
    k = min(l, cap)
    while True:
        ks.append(k)
        if k >= cap:
            break
        k = min(2 * k, cap)
    return ks


def minimize(rho: DensityMatrix, config: SearchConfig | None = None) -> SearchReport:
    """Search for an annihilating u; deterministic for fixed (rho, config).

    Runs the k schedule l, 2l, 4l, ... up to l^2, the most product terms
    a rank-l separable state needs (an explicit k is clipped to l^2; see
    SearchConfig); per size, one descent per seeded random restart.
    Results merge by minimum residual, first-come on ties.  Certificate
    extraction is attempted on every restart that ends at F <=
    _TOL_RESIDUAL, and the first one that yields a checked certificate
    ends the search; the others are counted as rejected extractions.  A
    1 x n or m x 1 state has no pairs, and its eigen-ensemble (u = I) is
    the certificate.  Raises ValueError when restarts or max_iters is
    below 1, and MemberCountError when an explicit k is below the rank.
    """
    cfg = config or SearchConfig()
    if cfg.restarts < 1 or cfg.max_iters < 1:
        raise ValueError(f"restarts and max_iters must be >= 1: {cfg.restarts}, {cfg.max_iters}")
    x = scaled_eigvecs(rho)
    l = x.count
    if min(rho.m, rho.n) == 1:
        certificate = certify(x.vectors, rho)
        return SearchReport(best_residual=0.0, best_u=np.eye(l, dtype=complex), k=l,
                            restarts_used=0, iterations_used=0, certificate=certificate,
                            rejected_extractions=int(certificate is None))
    cap = l * l
    taus = pair_taus(x, rho.m, rho.n)

    best_f = np.inf
    best_u = None
    best_k = 0
    restarts_used = 0
    iterations_used = 0
    rejected = 0
    certificate = None

    for k, i in itertools.product(_k_schedule(cfg, l, cap), range(cfg.restarts)):
        u0 = random_orthonormal_columns(k, l, cfg.seed + i)
        u, f, iters = _descend(u0, taus, cfg.max_iters)
        restarts_used += 1
        iterations_used += iters
        if f < best_f:
            best_f, best_u, best_k = f, u, k
        if f <= _TOL_RESIDUAL:
            certificate = certify(u, rho, x)
            if certificate is not None:
                break
            rejected += 1
    return SearchReport(best_residual=best_f, best_u=best_u, k=best_k,
                        restarts_used=restarts_used, iterations_used=iterations_used,
                        certificate=certificate, rejected_extractions=rejected)


def certificate_from_members(members: np.ndarray, m: int, n: int) -> SeparableCertificate:
    """Factor unnormalized pure states into (weight, alpha, beta) triples.

    Each member's coefficient matrix must be rank 1 within PRODUCT_TOL
    (second singular value relative to the first); members of negligible
    weight are dropped.
    """
    members = np.asarray(members, dtype=complex)
    weights = np.array([np.vdot(z, z).real for z in members])
    alphas, s, betas = product_svd(members, m, n)
    keep = weights > 1e-14
    if min(m, n) > 1:
        bad = np.flatnonzero(keep & (s[:, 1] > PRODUCT_TOL * s[:, 0]))
        if bad.size:
            i = int(bad[0])
            raise CertificateError(
                f"member {i} is not a product state: s2/s1 = {s[i, 1] / s[i, 0]:.3e}",
                member_index=i)
    if not np.any(keep):
        raise CertificateError("all members have negligible weight")
    return SeparableCertificate(m=m, n=n, weights=weights[keep],
                                alphas=alphas[keep], betas=betas[keep])


def check_certificate(cert: SeparableCertificate, rho_matrix: np.ndarray) -> None:
    """Assert the weights sum to rho's trace and the mixture rebuilds rho.

    The sum must match within STATE_TOL and the mixture within RECON_TOL.
    The target is rho's own trace, not 1: a valid state's trace is 1 only
    within STATE_TOL, and an exact decomposition's weights sum to its
    positive eigenvalues.
    """
    total = float(np.sum(cert.weights))
    trace = float(np.trace(rho_matrix).real)
    if abs(total - trace) > STATE_TOL:
        raise CertificateError(f"weights sum to {total:.12g}, expected the trace {trace:.12g}")
    err = float(np.linalg.norm(cert.density() - rho_matrix))
    if err > RECON_TOL:
        raise CertificateError(f"certificate reassembles rho only within {err:.3e}")


def extract_certificate(u, x: ScaledEigvecs, m: int, n: int) -> SeparableCertificate:
    """Certificate from the members |z_i> = sum_j u_ij |x_j>."""
    u = _check_u(u, x.count, 1e-8)
    return certificate_from_members(u @ x.vectors, m, n)


def certify(members, rho: DensityMatrix, x: ScaledEigvecs | None = None):
    """The certificate the members factor into if it rebuilds rho, else None.

    With x given, members is a search point u and the members are
    u @ x.vectors (extract_certificate).  Every certificate sepkit
    reports comes from here, checked by check_certificate.
    """
    try:
        cert = (certificate_from_members(members, rho.m, rho.n) if x is None
                else extract_certificate(members, x, rho.m, rho.n))
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

    A 1 x n or m x 1 system has no pairs and so no constraints.
    """
    if min(m, n) == 1:
        return ConstraintSystem(m=m, n=n, count=x.count, pairs=())
    systems = []
    for b, tau in zip(pair_operators(m, n), pair_taus(x, m, n)):
        cutoff = 1e-12 * max(1.0, float(np.max(np.abs(tau))))
        terms = []
        for j in range(x.count):
            for jp in range(j, x.count):
                w = (2.0 - (j == jp)) * tau[j, jp]
                if abs(w) > cutoff:
                    terms.append((j + 1, jp + 1, complex(w)))
        systems.append(PairConstraints(pair=b.pair, terms=tuple(terms)))
    return ConstraintSystem(m=m, n=n, count=x.count, pairs=tuple(systems))


def evaluate_constraints(cs: ConstraintSystem, u) -> np.ndarray:
    """Substitute the rows of u: out[r, i] = sum_{j<=j'} w_jj' conj(u_ij u_ij').

    Equals the member residuals <z_i| B^r |conj(z_i)> exactly.
    """
    u = np.asarray(u, dtype=complex)
    out = np.zeros((len(cs.pairs), u.shape[0]), dtype=complex)
    for r, pc in enumerate(cs.pairs):
        for j, jp, w in pc.terms:
            out[r] += w * np.conj(u[:, j - 1] * u[:, jp - 1])
    return out


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
