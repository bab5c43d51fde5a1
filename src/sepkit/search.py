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

Each trial point costs one batched product wt = conj(u) @ taus, which
gives F and its gradient together; an accepted trial's gradient is
carried into the next iteration.  A step M = u - alpha t is retracted to
its positive-diagonal QR factor by Cholesky QR: for a tangent t the Gram
matrix M^H M = I + alpha^2 t^H t >= I, so its Cholesky factor L always
exists with singular values >= 1, and M L^-H is that factor (R = L^H).
"""

from dataclasses import dataclass

import numpy as np

from .criterion import ScaledEigvecs, pair_taus, scaled_eigvecs
from .criterion import tau_matrix  # noqa: F401 (traced by perfbench)
from .linalg import random_orthonormal_columns, reorthonormalize  # noqa: F401 (traced by perfbench)
from .pairs import PairIndex, pair_operators
from .states import DensityMatrix, format_float

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
    "emit_constraints",
    "render_constraints",
    "evaluate_constraints",
]


@dataclass
class SearchConfig:
    """Budget and tolerances for the search.

    k = None walks the schedule l, 2l, 4l, ... capped at (mn)^2; an
    explicit k runs that single ensemble size.  Each size runs `restarts`
    descents from random orthonormal starts seeded seed + restart index.
    """

    k: int | None = None
    restarts: int = 50
    max_iters: int = 2000
    tol_residual: float = 1e-10
    seed: int = 0
    armijo_c: float = 1e-4
    shrink: float = 0.5
    step_init: float = 1.0
    step_min: float = 1e-14
    grad_tol: float = 1e-12
    product_tol: float = 1e-6
    rank_tol: float = 1e-10


@dataclass(frozen=True)
class SeparableCertificate:
    """Explicit mixture of product states: weights and unit factor vectors."""

    m: int
    n: int
    weights: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    def density(self) -> np.ndarray:
        d = self.m * self.n
        out = np.zeros((d, d), dtype=complex)
        for w, a, b in zip(self.weights, self.alphas, self.betas):
            psi = np.kron(a, b)
            out += w * np.outer(psi, psi.conj())
        return out


class CertificateError(ValueError):
    """A member failed the product test (member_index) or the mixture check."""

    def __init__(self, message: str, member_index: int | None = None):
        super().__init__(message)
        self.member_index = member_index


@dataclass(frozen=True)
class SearchReport:
    """Best point found, its residual, the budget used, and the certificate if any."""

    best_residual: float
    best_u: np.ndarray
    k: int
    restarts_used: int
    iterations_used: int
    certificate: SeparableCertificate | None


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
    if orth_tol is not None:
        gram = u.conj().T @ u
        if np.linalg.norm(gram - np.eye(l)) > orth_tol:
            raise ValueError("u does not have orthonormal columns within tolerance")
    return u


def _objective_and_gradient(u: np.ndarray, taus: np.ndarray) -> tuple[float, np.ndarray]:
    """F(u) and its Euclidean gradient from one batched product."""
    w = u.conj()
    wt = w @ taus
    d = np.einsum("ril,il->ri", wt, w)
    return float(np.vdot(d, d).real), 4.0 * np.einsum("ri,ril->il", d.conj(), wt)


def joint_residual(u, taus, orth_tol: float = 1e-3) -> float:
    """F(u) = sum over pairs and members of |<z_i| B^r |conj(z_i)>|^2."""
    taus = _stack_taus(taus)
    return _objective_and_gradient(_check_u(u, taus.shape[1], orth_tol), taus)[0]


def residual_gradient(u, taus, orth_tol: float = 1e-3) -> np.ndarray:
    """Euclidean gradient of joint_residual with respect to u.

    For a direction d, the directional derivative equals
    Re(vdot(d, residual_gradient(u))); validated against central finite
    differences.
    """
    taus = _stack_taus(taus)
    return _objective_and_gradient(_check_u(u, taus.shape[1], orth_tol), taus)[1]


def _tangent_project(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    utg = u.conj().T @ g
    return g - u @ ((utg + utg.conj().T) / 2.0)


def _retract(m: np.ndarray) -> np.ndarray:
    """Cholesky QR; its eps ||m||^2 orthonormality error makes a long step take two passes."""
    gram = m.conj().T @ m
    q = np.linalg.solve(np.linalg.cholesky(gram), m.conj().T).conj().T
    return _retract(q) if np.vdot(m, m).real > 2 * m.shape[1] else q


def _descend(u0: np.ndarray, taus: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, float, int]:
    """Monotone projected gradient descent with backtracking line search."""
    u = u0
    f, g = _objective_and_gradient(u, taus)
    step = cfg.step_init
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        if f <= cfg.tol_residual * 0.01:
            break
        t = _tangent_project(u, g)
        tnorm2 = float(np.vdot(t, t).real)
        if tnorm2 <= cfg.grad_tol ** 2:
            break
        alpha = min(step / cfg.shrink, cfg.step_init)
        while alpha >= cfg.step_min:
            try:
                u_try = _retract(u - alpha * t)
            except np.linalg.LinAlgError:
                alpha *= cfg.shrink
                continue
            f_try, g_try = _objective_and_gradient(u_try, taus)
            if f_try <= f - cfg.armijo_c * alpha * tnorm2:
                u, f, g = u_try, f_try, g_try
                step = alpha
                break
            alpha *= cfg.shrink
        else:  # no trial step was accepted
            break
    return u, f, iters


def _polish(u: np.ndarray, taus: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, float, int]:
    """Sharpen a near-minimum before certificate extraction.

    Plain descent crawls in the flat basin around a residual zero, which
    leaves the members too impure for the certificate tolerances.  A
    Barzilai-Borwein trial step (Armijo still decides) converges the
    last few orders of magnitude quickly.
    """
    f, g = _objective_and_gradient(u, taus)
    step = cfg.step_init
    prev_u = None
    prev_t = None
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        if f <= 1e-28:
            break
        t = _tangent_project(u, g)
        tnorm2 = float(np.vdot(t, t).real)
        if tnorm2 <= (1e-16) ** 2:
            break
        if prev_u is not None:
            s = u - prev_u
            y = t - prev_t
            denom = float(np.real(np.vdot(s, y)))
            if denom > 0.0:
                step = float(np.real(np.vdot(s, s))) / denom
            step = min(max(step, 1e-10), 1e6)
        alpha = step
        while alpha >= cfg.step_min:
            try:
                u_try = _retract(u - alpha * t)
            except np.linalg.LinAlgError:
                alpha *= cfg.shrink
                continue
            f_try, g_try = _objective_and_gradient(u_try, taus)
            if f_try < f:
                prev_u, prev_t = u, t
                u, f, g = u_try, f_try, g_try
                break
            alpha *= cfg.shrink
        else:  # no trial step was accepted
            break
    return u, f, iters


def _k_schedule(cfg: SearchConfig, l: int, cap: int) -> list[int]:
    if cfg.k is not None:
        if cfg.k < l:
            raise ValueError(f"k = {cfg.k} is below the rank l = {l}")
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

    Runs the k schedule; per size, one descent per seeded random restart.
    Results merge by minimum residual, first-come on ties.  A restart
    reaching tol_residual is polished and certificate extraction is
    attempted; the first start that yields a certificate ends the search.
    """
    cfg = config or SearchConfig()
    x = scaled_eigvecs(rho, cfg.rank_tol)
    l = x.count
    cap = (rho.dim) ** 2
    taus = pair_taus(x, rho.m, rho.n)

    best_f = np.inf
    best_u = None
    best_k = 0
    restarts_used = 0
    iterations_used = 0
    certificate = None

    for k in _k_schedule(cfg, l, cap):
        for i in range(cfg.restarts):
            u0 = random_orthonormal_columns(k, l, cfg.seed + i)
            u, f, iters = _descend(u0, taus, cfg)
            restarts_used += 1
            iterations_used += iters
            if f <= 1e4 * cfg.tol_residual:
                # Plain descent crawls near a zero; polish decides whether
                # the basin bottoms out at one before extraction is tried.
                u, f, polish_iters = _polish(u, taus, cfg)
                iterations_used += polish_iters
            if f < best_f:
                best_f, best_u, best_k = f, u, k
            if f <= cfg.tol_residual:
                try:
                    certificate = extract_certificate(u, x, rho.m, rho.n,
                                                      cfg.product_tol)
                    check_certificate(certificate, rho.matrix)
                except CertificateError:
                    certificate = None
                    continue
                return SearchReport(best_residual=best_f, best_u=best_u,
                                    k=best_k, restarts_used=restarts_used,
                                    iterations_used=iterations_used,
                                    certificate=certificate)
    return SearchReport(best_residual=best_f, best_u=best_u, k=best_k,
                        restarts_used=restarts_used,
                        iterations_used=iterations_used, certificate=None)


def certificate_from_members(members: np.ndarray, m: int, n: int,
                             tol: float = 1e-6) -> SeparableCertificate:
    """Factor unnormalized pure states into (weight, alpha, beta) triples.

    Each member's coefficient matrix must be rank 1 within tol (second
    singular value relative to the first); members of negligible weight
    are dropped.
    """
    members = np.asarray(members, dtype=complex)
    weights = []
    alphas = []
    betas = []
    for i in range(members.shape[0]):
        z = members[i]
        p = float(np.real(np.vdot(z, z)))
        if p <= 1e-14:
            continue
        uu, s, vh = np.linalg.svd(z.reshape(m, n))
        if min(m, n) > 1 and s[1] > tol * s[0]:
            raise CertificateError(
                f"member {i} is not a product state: s2/s1 = {s[1] / s[0]:.3e}",
                member_index=i)
        weights.append(p)
        alphas.append(uu[:, 0])
        betas.append(vh[0, :])
    if not weights:
        raise CertificateError("all members have negligible weight")
    return SeparableCertificate(m=m, n=n, weights=np.array(weights),
                                alphas=np.array(alphas), betas=np.array(betas))


def check_certificate(cert: SeparableCertificate, rho_matrix: np.ndarray,
                      recon_tol: float = 1e-8, weight_tol: float = 1e-10) -> None:
    """Assert the mixture is normalized and reassembles rho."""
    total = float(np.sum(cert.weights))
    if abs(total - 1.0) > weight_tol:
        raise CertificateError(f"weights sum to {total:.12g}, expected 1")
    err = float(np.linalg.norm(cert.density() - rho_matrix))
    if err > recon_tol:
        raise CertificateError(f"certificate reassembles rho only within {err:.3e}")


def extract_certificate(u, x: ScaledEigvecs, m: int, n: int,
                        tol: float = 1e-6) -> SeparableCertificate:
    """Certificate from the members |z_i> = sum_j u_ij |x_j>."""
    u = _check_u(u, x.count, 1e-8)
    return certificate_from_members(u @ x.vectors, m, n, tol)


@dataclass(frozen=True)
class PairConstraints:
    """One pair's tau and the quadratic equation sum_{j<=j'} w_jj' u_j u_j' = 0."""

    pair: PairIndex
    tau: np.ndarray
    terms: tuple[tuple[int, int, complex], ...]


@dataclass(frozen=True)
class ConstraintSystem:
    """Per-pair quadratic constraints every member row of u must satisfy."""

    m: int
    n: int
    count: int
    pairs: tuple[PairConstraints, ...]


def emit_constraints(x: ScaledEigvecs, m: int, n: int) -> ConstraintSystem:
    """Constraint system over the rows of u: w_jj' = (2 - delta_jj') tau_jj'."""
    systems = []
    for b, tau in zip(pair_operators(m, n), pair_taus(x, m, n)):
        cutoff = 1e-12 * max(1.0, float(np.max(np.abs(tau))))
        terms = []
        for j in range(x.count):
            for jp in range(j, x.count):
                w = (2.0 - (j == jp)) * tau[j, jp]
                if abs(w) > cutoff:
                    terms.append((j + 1, jp + 1, complex(w)))
        systems.append(PairConstraints(pair=b.pair, tau=tau, terms=tuple(terms)))
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
    return "\n".join(lines) + "\n"
