"""Spectral separability tests built on the pair operators.

For a state rho = sum_i t_i |e_i><e_i| with scaled eigenvectors
|x_i> = sqrt(t_i) |e_i>, each pair operator B yields a complex symmetric
matrix tau with tau[i, j] = <x_i| B |conj(x_j)>.  Writing lambda_1 >= ...
for the singular values of tau, separability requires

    a = lambda_1 - (lambda_2 + ... + lambda_l')  <=  0

for every pair, where l' counts the nonzero lambdas.  B has four
nonzero entries, so tau has rank <= 4 and its nonzero lambdas are those
of a 4 x 4 core (see pair_reports).  The partial transpose test runs
alongside as an independent witness.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitian_eig, singular_values
from .pairs import PairIndex, PairOperator, enumerate_pairs, pair_operators
from .states import DensityMatrix

__all__ = [
    "ScaledEigvecs",
    "SpectralReport",
    "Verdict",
    "ClassifyConfig",
    "ClassificationReport",
    "scaled_eigvecs",
    "tau_matrix",
    "pair_taus",
    "pair_spectrum",
    "a_value",
    "pair_reports",
    "partial_transpose",
    "ppt_min_eigenvalue",
    "pure_product_check",
    "pair_concurrence_2x2",
    "classify",
]


@dataclass(frozen=True)
class ScaledEigvecs:
    """Rows are eigenvectors of rho scaled by sqrt(eigenvalue); <x_i|x_j> = t_i delta_ij."""

    vectors: np.ndarray
    values: np.ndarray
    rank_tol: float

    @property
    def count(self) -> int:
        return int(self.values.shape[0])


def scaled_eigvecs(rho: DensityMatrix, rank_tol: float = 1e-10,
                   basis_override=None) -> ScaledEigvecs:
    """Scaled eigenvectors of rho for its eigenvalues above rank_tol.

    ``basis_override`` supplies the rows directly (e.g. a fixed gauge for
    a degenerate spectrum); it is validated against rho: the Gram matrix
    must be diag(norms^2), the norms^2 must match rho's nonzero spectrum
    as a multiset, and the rows must reassemble rho.
    """
    eig = hermitian_eig(rho.matrix, tol=1e-8)
    w = eig.eigenvalues
    if w[-1] < -1e-8:
        raise ValueError(f"rho has negative eigenvalue {w[-1]:.3e}")
    if abs(np.sum(w) - 1.0) > 1e-8:
        raise ValueError(f"rho has trace {np.sum(w):.12g}, expected 1")
    keep = w > rank_tol

    if basis_override is not None:
        x = np.asarray(basis_override, dtype=complex)
        if x.ndim != 2 or x.shape[1] != rho.dim:
            raise ValueError(f"override shape {x.shape} does not match dimension {rho.dim}")
        gram = x @ x.conj().T
        norms = np.diagonal(gram).real.copy()
        if np.linalg.norm(gram - np.diag(norms)) > 1e-10:
            raise ValueError("override vectors are not orthogonal within tolerance")
        if x.shape[0] != int(np.sum(keep)) or np.linalg.norm(
                np.sort(norms) - np.sort(w[keep])) > 1e-8:
            raise ValueError("override norms do not match the nonzero spectrum of rho")
        recon = np.einsum("ia,ib->ab", x, x.conj())
        if np.linalg.norm(recon - rho.matrix) > 1e-8:
            raise ValueError("override vectors do not reassemble rho")
        return ScaledEigvecs(vectors=x, values=norms, rank_tol=rank_tol)

    t = w[keep]
    x = (eig.eigenvectors[:, keep] * np.sqrt(t)[None, :]).T
    return ScaledEigvecs(vectors=x, values=t, rank_tol=rank_tol)


def tau_matrix(x: ScaledEigvecs, b: PairOperator) -> np.ndarray:
    """Complex symmetric l x l matrix tau[i, j] = x_i^dag B conj(x_j)."""
    if x.vectors.shape[1] != b.m * b.n:
        raise ValueError(f"vectors have dimension {x.vectors.shape[1]}, operator needs {b.m * b.n}")
    xc = x.vectors.conj()
    tau = np.zeros((x.count, x.count), dtype=complex)
    for row, col, val in b.entries:
        tau += val * np.outer(xc[:, row - 1], xc[:, col - 1])
    return (tau + tau.T) / 2.0


# Complex entries per scratch block of _stacked_taus (256 KiB): small next
# to the (P, l, l) stack it fills, large enough to batch the pairs.
_TAU_BLOCK = 1 << 14


def _pair_layout(x: ScaledEigvecs, ops: list[PairOperator]):
    """conj(X) by columns, and every operator's entries as (P, 4) arrays.

    Row i of the first array is column i of conj(X); the entries come as
    0-based rows, 0-based columns and values.
    """
    dim = ops[0].m * ops[0].n
    if x.vectors.shape[1] != dim:
        raise ValueError(f"vectors have dimension {x.vectors.shape[1]}, operator needs {dim}")
    ent = np.array([b.entries for b in ops])
    rows, cols = (ent[:, :, k].astype(np.intp) - 1 for k in (0, 1))
    return np.ascontiguousarray(x.vectors.conj().T), rows, cols, ent[:, :, 2]


def _stacked_taus(xt: np.ndarray, rows, cols, vals) -> np.ndarray:
    """tau_matrix of every operator at once, accumulated in its order.

    The signed outer products (val conj(x)_row) conj(x)_col^T are added to
    a zeroed stack one entry at a time, then the stack is symmetrized, so
    each tau equals tau_matrix's bit for bit.  Pairs go in blocks through
    one small scratch buffer instead of full-size temporaries.
    """
    count, l = rows.shape[0], xt.shape[1]
    taus = np.zeros((count, l, l), dtype=complex)
    step = max(1, _TAU_BLOCK // (l * l))
    scratch = np.empty((min(step, count), l, l), dtype=complex)
    for start in range(0, count, step):
        blk = slice(start, start + step)
        left = vals[blk, :, None] * xt[rows[blk]]
        right = xt[cols[blk]]
        tau = taus[blk]
        term = scratch[:tau.shape[0]]
        for e in range(rows.shape[1]):
            np.multiply(left[:, e, :, None], right[:, e, None, :], out=term)
            tau += term
        np.add(tau, tau.swapaxes(1, 2), out=term)
        np.divide(term, 2.0, out=tau)
    return taus


def pair_taus(x: ScaledEigvecs, m: int, n: int) -> np.ndarray:
    """The (P, l, l) stack of every pair's tau, in enumeration order.

    Bit for bit equal to stacking tau_matrix over pair_operators(m, n).
    """
    return _stacked_taus(*_pair_layout(x, pair_operators(m, n)))


def pair_spectrum(tau, rank_tol: float = 1e-10) -> tuple[np.ndarray, int]:
    """Descending singular values of tau and the count above rank_tol.

    Equal to the square roots of the eigenvalues of tau @ conj(tau).
    """
    tau = np.asarray(tau, dtype=complex)
    if np.linalg.norm(tau - tau.T) > 1e-8 * (1.0 + np.linalg.norm(tau)):
        raise ValueError("tau must be complex symmetric")
    lambdas = singular_values(tau)
    return lambdas, int(np.sum(lambdas > rank_tol))


def a_value(lambdas, l_prime: int) -> float:
    """lambda_1 minus the sum of the remaining nonzero lambdas (0 when l' = 0)."""
    lambdas = np.asarray(lambdas, dtype=float)
    if l_prime < 0 or l_prime > lambdas.shape[0]:
        raise ValueError(f"l_prime {l_prime} out of range for {lambdas.shape[0]} lambdas")
    if l_prime == 0:
        return 0.0
    return float(lambdas[0] - np.sum(lambdas[1:l_prime]))


@dataclass(frozen=True)
class SpectralReport:
    """Per-pair spectral data: tau, its singular values, and the a value."""

    pair: PairIndex
    tau: np.ndarray
    lambdas: np.ndarray
    l_prime: int
    a_value: float


def pair_reports(x: ScaledEigvecs, m: int, n: int,
                 rank_tol: float = 1e-10) -> list[SpectralReport]:
    """Spectral reports for every pair, in enumeration order.

    tau_r = V S V^T, where V holds the four columns of conj(X) that B_r
    touches and S is its 4 x 4 sign block.  With the thin QR V = Q R,
    tau_r = Q (R S R^T) Q^T, so its nonzero singular values are those of
    the core R S R^T: one batched QR and one batched SVD give every
    pair's lambdas, padded with exact zeros to length l.  A 1 x n or
    m x 1 system has no pairs.
    """
    if min(m, n) == 1:
        return []
    ops = pair_operators(m, n)
    xt, rows, cols, vals = _pair_layout(x, ops)
    # V = conj(X)[:, rows]; S[e, f] = val_e where entry e's column is entry f's row.
    sign = np.where(cols[:, :, None] == rows[:, None, :], vals[:, :, None], 0.0)
    r = np.linalg.qr(xt[rows].swapaxes(1, 2), mode="r")
    lambdas = np.zeros((len(ops), x.count))
    lambdas[:, :r.shape[1]] = np.linalg.svd(r @ sign @ r.swapaxes(1, 2), compute_uv=False)
    l_primes = np.count_nonzero(lambdas > rank_tol, axis=1).tolist()
    taus = _stacked_taus(xt, rows, cols, vals)
    return [SpectralReport(pair=b.pair, tau=tau, lambdas=lam, l_prime=lp,
                           a_value=a_value(lam, lp))
            for b, tau, lam, lp in zip(ops, taus, lambdas, l_primes)]


def partial_transpose(rho: DensityMatrix, subsystem: int = 2) -> np.ndarray:
    """Transpose one factor: entry ((a,mu),(b,nu)) becomes ((a,nu),(b,mu)) for subsystem 2."""
    if subsystem not in (1, 2):
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")
    r = rho.matrix.reshape(rho.m, rho.n, rho.m, rho.n)
    axes = (0, 3, 2, 1) if subsystem == 2 else (2, 1, 0, 3)
    return r.transpose(axes).reshape(rho.dim, rho.dim)


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose; negative proves entanglement."""
    return float(np.linalg.eigvalsh(partial_transpose(rho))[0])


def pure_product_check(psi, m: int, n: int, tol: float = 1e-8) -> bool:
    """Whether the coefficient matrix of psi is rank 1 within tolerance.

    True when the second singular value is <= tol times the largest.
    Raises on a zero vector.
    """
    a = np.asarray(psi, dtype=complex).reshape(-1)
    if a.shape[0] != m * n:
        raise ValueError(f"state has length {a.shape[0]}, expected {m * n}")
    s = singular_values(a.reshape(m, n))
    if s[0] <= 0.0:
        raise ValueError("zero vector has no product test")
    if min(m, n) == 1:
        return True
    return bool(s[1] <= tol * s[0])


def pair_concurrence_2x2(rho: DensityMatrix, rank_tol: float = 1e-10) -> float:
    """The a value of a 2x2 state's single pair.

    Coincides with the concurrence combination lambda_1 - lambda_2 -
    lambda_3 - lambda_4 (its positive part is the concurrence).
    """
    if (rho.m, rho.n) != (2, 2):
        raise ValueError(f"defined for 2x2 states only, got ({rho.m}, {rho.n})")
    x = scaled_eigvecs(rho, rank_tol)
    [report] = pair_reports(x, 2, 2, rank_tol)
    return report.a_value


class Verdict(enum.Enum):
    SEPARABLE_CERTIFIED = "SeparableCertified"
    ENTANGLED_BY_PAIR_CRITERION = "EntangledByPairCriterion"
    ENTANGLED_BY_PPT = "EntangledByPPT"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class ClassifyConfig:
    """Tolerances and search budget for the classification pipeline."""

    rank_tol: float = 1e-10
    boundary_tol: float = 1e-9
    product_tol: float = 1e-6
    cert_recon_tol: float = 1e-8
    search: "object | None" = None  # SearchConfig; defaulted in classify


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the full pipeline plus the evidence it was based on."""

    verdict: Verdict
    ppt_min_eigenvalue: float
    pairs: list[SpectralReport]
    entangling_pair: int | None = None
    certificate: "object | None" = None  # SeparableCertificate
    search: "object | None" = None  # SearchReport


def classify(rho: DensityMatrix, config: ClassifyConfig | None = None,
             basis_override=None) -> ClassificationReport:
    """Run the pipeline: spectra, pair criterion, partial transpose, then search.

    A 1 x n or m x 1 state is a product and is certified from its
    eigen-ensemble.  Any pair with a > boundary_tol or a partial-transpose
    eigenvalue below -boundary_tol proves entanglement.  Otherwise a
    separable decomposition is attempted; success yields a verified
    certificate, failure is reported as inconclusive (never as entangled).
    """
    from . import search as _search

    cfg = config or ClassifyConfig()
    scfg = cfg.search or _search.SearchConfig()
    x = scaled_eigvecs(rho, cfg.rank_tol, basis_override)
    ppt_min = ppt_min_eigenvalue(rho)
    if min(rho.m, rho.n) == 1:
        # No pairs exist and every vector is a product, so the eigen-ensemble
        # itself is the certificate.
        cert = _search.certificate_from_members(x.vectors, rho.m, rho.n, cfg.product_tol)
        _search.check_certificate(cert, rho.matrix, cfg.cert_recon_tol)
        return ClassificationReport(
            verdict=Verdict.SEPARABLE_CERTIFIED,
            ppt_min_eigenvalue=ppt_min, pairs=[], certificate=cert)
    reports = pair_reports(x, rho.m, rho.n, cfg.rank_tol)

    for r, rep in enumerate(reports, start=1):
        if rep.a_value > cfg.boundary_tol:
            return ClassificationReport(
                verdict=Verdict.ENTANGLED_BY_PAIR_CRITERION,
                ppt_min_eigenvalue=ppt_min, pairs=reports, entangling_pair=r)
    if ppt_min < -cfg.boundary_tol:
        return ClassificationReport(
            verdict=Verdict.ENTANGLED_BY_PPT,
            ppt_min_eigenvalue=ppt_min, pairs=reports)

    if x.count == 1:
        psi = x.vectors[0]
        if pure_product_check(psi, rho.m, rho.n, cfg.product_tol):
            try:
                cert = _search.certificate_from_members(
                    x.vectors, rho.m, rho.n, cfg.product_tol)
                _search.check_certificate(cert, rho.matrix, cfg.cert_recon_tol)
                return ClassificationReport(
                    verdict=Verdict.SEPARABLE_CERTIFIED,
                    ppt_min_eigenvalue=ppt_min, pairs=reports, certificate=cert)
            except _search.CertificateError:
                pass

    if len(reports) == 1 and reports[0].a_value <= cfg.boundary_tol:
        cert = _constructive_certificate(rho, cfg, x)
        if cert is not None:
            return ClassificationReport(
                verdict=Verdict.SEPARABLE_CERTIFIED,
                ppt_min_eigenvalue=ppt_min, pairs=reports, certificate=cert)

    search_report = _search.minimize(rho, scfg)
    if search_report.certificate is not None:
        return ClassificationReport(
            verdict=Verdict.SEPARABLE_CERTIFIED, ppt_min_eigenvalue=ppt_min,
            pairs=reports, certificate=search_report.certificate, search=search_report)
    return ClassificationReport(
        verdict=Verdict.INCONCLUSIVE, ppt_min_eigenvalue=ppt_min,
        pairs=reports, search=search_report)


def _constructive_certificate(rho: DensityMatrix, cfg: ClassifyConfig,
                              x: ScaledEigvecs):
    """Exact route for single-pair systems: the pair ensemble is a full decomposition."""
    from . import decompose as _decompose
    from . import search as _search

    pair = enumerate_pairs(rho.m, rho.n)[0]
    try:
        ensemble = _decompose.single_pair_decomposition(
            rho, pair, rank_tol=cfg.rank_tol, boundary_tol=cfg.boundary_tol)
        cert = _search.certificate_from_members(
            ensemble.members, rho.m, rho.n, cfg.product_tol)
        _search.check_certificate(cert, rho.matrix, cfg.cert_recon_tol)
    except (ValueError, _search.CertificateError):
        return None
    return cert
