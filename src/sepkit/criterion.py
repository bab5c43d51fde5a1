"""Spectral separability tests built on the pair operators.

For a state rho = sum_i t_i |e_i><e_i| with scaled eigenvectors
|x_i> = sqrt(t_i) |e_i>, each pair operator B yields a complex symmetric
matrix tau with tau[i, j] = <x_i| B |conj(x_j)>.  Writing lambda_1 >= ...
for the singular values of tau, separability requires

    a = lambda_1 - (lambda_2 + ... + lambda_l')  <=  0

for every pair, where l' counts the nonzero lambdas.  B has four
nonzero entries, so tau has rank <= 4 and its nonzero lambdas are those
of a 4 x 4 core (pair_reports); only pair_taus stacks tau_matrix
into the (P, l, l) array the search reads.  The partial transpose test
runs alongside as an independent witness.
"""

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import descending_eig, product_svd, singular_values
from .linalg import hermitian_eig  # noqa: F401 (traced by perfbench)
from .pairs import PairIndex, PairOperator, enumerate_pairs, pair_operators
from .states import BOUNDARY_TOL, DensityMatrix

__all__ = [
    "RANK_TOL",
    "BOUNDARY_TOL",
    "PRODUCT_TOL",
    "RECON_TOL",
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

# The tolerances of sepkit's decisions, each defined once (BOUNDARY_TOL in states):
RANK_TOL = 1e-10      # an eigenvalue of rho or a lambda at or below it is zero
PRODUCT_TOL = 1e-6    # a member is a product when s2 <= PRODUCT_TOL * s1
RECON_TOL = 1e-8      # a mixture rebuilds rho when ||mixture - rho||_F <= it


@dataclass(frozen=True)
class ScaledEigvecs:
    """Rows are eigenvectors of rho scaled by sqrt(eigenvalue); <x_i|x_j> = t_i delta_ij."""

    vectors: np.ndarray
    values: np.ndarray

    @property
    def count(self) -> int:
        return int(self.values.shape[0])


def scaled_eigvecs(rho: DensityMatrix, basis_override=None) -> ScaledEigvecs:
    """Scaled eigenvectors of rho for its eigenvalues above RANK_TOL.

    ``basis_override`` supplies the rows directly (e.g. a fixed gauge for
    a degenerate spectrum); it is validated against rho: the Gram matrix
    must be diag(norms^2), the norms^2 must match rho's nonzero spectrum
    as a multiset, and the rows must reassemble rho.  The spectrum is the
    one rho was validated with, so no second eigendecomposition is made,
    and only the kept eigenvectors get hermitian_eig's phase convention:
    they equal its columns bit for bit.
    """
    w, v = rho._eigh
    # Ascending, so the eigenvalues above RANK_TOL are the last ones.
    zero = int(np.count_nonzero(w <= RANK_TOL))
    eig = descending_eig(w[zero:], v[:, zero:])
    t = eig.eigenvalues

    if basis_override is not None:
        x = np.asarray(basis_override, dtype=complex)
        if x.ndim != 2 or x.shape[1] != rho.dim:
            raise ValueError(f"override shape {x.shape} does not match dimension {rho.dim}")
        gram = x @ x.conj().T
        norms = np.diagonal(gram).real.copy()
        if np.linalg.norm(gram - np.diag(norms)) > 1e-10:
            raise ValueError("override vectors are not orthogonal within tolerance")
        if x.shape[0] != t.shape[0] or np.linalg.norm(np.sort(norms) - np.sort(t)) > 1e-8:
            raise ValueError("override norms do not match the nonzero spectrum of rho")
        recon = np.einsum("ia,ib->ab", x, x.conj())
        if np.linalg.norm(recon - rho.matrix) > 1e-8:
            raise ValueError("override vectors do not reassemble rho")
        return ScaledEigvecs(vectors=x, values=norms)

    return ScaledEigvecs(vectors=(eig.eigenvectors * np.sqrt(t)[None, :]).T, values=t)


def tau_matrix(x: ScaledEigvecs, b: PairOperator) -> np.ndarray:
    """Complex symmetric l x l matrix tau[i, j] = x_i^dag B conj(x_j)."""
    if x.vectors.shape[1] != b.m * b.n:
        raise ValueError(f"vectors have dimension {x.vectors.shape[1]}, operator needs {b.m * b.n}")
    xc = x.vectors.conj()
    tau = np.zeros((x.count, x.count), dtype=complex)
    for row, col, val in b.entries:
        tau += val * np.outer(xc[:, row - 1], xc[:, col - 1])
    return (tau + tau.T) / 2.0


def pair_taus(x: ScaledEigvecs, m: int, n: int) -> np.ndarray:
    """The (P, l, l) stack of every pair's tau_matrix, in enumeration order."""
    return np.array([tau_matrix(x, b) for b in pair_operators(m, n)])


def pair_spectrum(tau) -> tuple[np.ndarray, int]:
    """Descending singular values of tau and the count above RANK_TOL.

    Equal to the square roots of the eigenvalues of tau @ conj(tau).
    """
    tau = np.asarray(tau, dtype=complex)
    if np.linalg.norm(tau - tau.T) > 1e-8 * (1.0 + np.linalg.norm(tau)):
        raise ValueError("tau must be complex symmetric")
    lambdas = singular_values(tau)
    return lambdas, int(np.sum(lambdas > RANK_TOL))


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
    """Per-pair spectral data: the singular values of tau, l' and the a value."""

    pair: PairIndex
    lambdas: np.ndarray
    l_prime: int
    a_value: float


@functools.lru_cache(maxsize=64)
def _pair_layout(m: int, n: int) -> tuple[tuple[PairIndex, ...], np.ndarray, np.ndarray]:
    """Each pair, the 0-based rows its four entries touch (P, 4), and its sign block.

    Depends only on (m, n), so it is built once per shape; the arrays are
    read-only.  sign[r, e, f] = val_e where entry e's column is entry f's row.
    """
    ops = pair_operators(m, n)
    ent = np.array([b.entries for b in ops])
    rows, cols = (ent[:, :, k].astype(np.intp) - 1 for k in (0, 1))
    sign = np.where(cols[:, :, None] == rows[:, None, :], ent[:, :, 2, None], 0.0)
    rows.flags.writeable = sign.flags.writeable = False
    return tuple(b.pair for b in ops), rows, sign


def pair_reports(x: ScaledEigvecs, m: int, n: int) -> list[SpectralReport]:
    """Spectral reports for every pair, in enumeration order.

    tau_r = V S V^T, where V holds the four columns of conj(X) that B_r
    touches and S is its 4 x 4 sign block.  With the thin QR V = Q R,
    tau_r = Q (R S R^T) Q^T, so its nonzero singular values are those of
    the core R S R^T: one batched QR and one batched SVD give every
    pair's lambdas, padded with exact zeros to length l, and no tau is
    built.  A 1 x n or m x 1 system has no pairs.
    """
    if min(m, n) == 1:
        return []
    pairs, rows, sign = _pair_layout(m, n)
    if x.vectors.shape[1] != m * n:
        raise ValueError(f"vectors have dimension {x.vectors.shape[1]}, operator needs {m * n}")
    # V = conj(X)[:, rows], one 4-column block per pair.
    r = np.linalg.qr(x.vectors.conj().T[rows].swapaxes(1, 2), mode="r")
    core = np.linalg.svd(r @ sign @ r.swapaxes(1, 2), compute_uv=False)
    lambdas = np.zeros((len(pairs), x.count))
    lambdas[:, :core.shape[1]] = core
    # Every a_value at once: the nonzero lambdas are a descending prefix of
    # at most four, and the trailing ones are summed in a_value's order.
    nz = np.zeros((len(pairs), 4))
    nz[:, :core.shape[1]] = np.where(core > RANK_TOL, core, 0.0)
    a_values = (nz[:, 0] - ((nz[:, 1] + nz[:, 2]) + nz[:, 3])).tolist()
    l_primes = np.count_nonzero(nz, axis=1).tolist()
    return [SpectralReport(pair=pair, lambdas=lam, l_prime=lp, a_value=a)
            for pair, lam, lp, a in zip(pairs, lambdas, l_primes, a_values)]


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the second factor: entry ((a,mu),(b,nu)) becomes ((a,nu),(b,mu)).

    Transposing the first factor gives the full transpose, with the same spectrum.
    """
    r = rho.matrix.reshape(rho.m, rho.n, rho.m, rho.n)
    return r.transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim)


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Least eigenvalue of the partial transpose's Hermitian part; negative proves entanglement."""
    pt = partial_transpose(rho)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0])


def pure_product_check(psi, m: int, n: int) -> bool:
    """Whether the coefficient matrix of psi is rank 1 within tolerance.

    True when the second singular value is <= PRODUCT_TOL times the largest.
    Raises on a zero vector.
    """
    a = np.asarray(psi, dtype=complex).reshape(-1)
    if a.shape[0] != m * n:
        raise ValueError(f"state has length {a.shape[0]}, expected {m * n}")
    s = product_svd(a[None, :], m, n)[1][0]
    if s[0] <= 0.0:
        raise ValueError("zero vector has no product test")
    return min(m, n) == 1 or bool(s[1] <= PRODUCT_TOL * s[0])


def pair_concurrence_2x2(rho: DensityMatrix) -> float:
    """The a value of a 2x2 state's single pair.

    Coincides with the concurrence combination lambda_1 - lambda_2 -
    lambda_3 - lambda_4 (its positive part is the concurrence).
    """
    if (rho.m, rho.n) != (2, 2):
        raise ValueError(f"defined for 2x2 states only, got ({rho.m}, {rho.n})")
    x = scaled_eigvecs(rho)
    [report] = pair_reports(x, 2, 2)
    return report.a_value


class Verdict(enum.Enum):
    SEPARABLE_CERTIFIED = "SeparableCertified"
    ENTANGLED_BY_PAIR_CRITERION = "EntangledByPairCriterion"
    ENTANGLED_BY_PPT = "EntangledByPPT"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class ClassifyConfig:
    """Search budget for the classification pipeline; the tolerances are the module's."""

    search: "object | None" = None  # SearchConfig; defaulted in minimize


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

    Any pair with a > BOUNDARY_TOL or a partial-transpose eigenvalue below
    -BOUNDARY_TOL proves entanglement; a 1 x n or m x 1 state has no pairs
    and is never entangled.  Otherwise a separable decomposition is
    attempted; success yields a verified certificate, failure is reported
    as inconclusive (never as entangled).
    """
    from . import search as _search

    cfg = config or ClassifyConfig()
    x = scaled_eigvecs(rho, basis_override=basis_override)
    ppt_min = ppt_min_eigenvalue(rho)
    reports = pair_reports(x, rho.m, rho.n)

    def report(verdict: Verdict, **evidence) -> ClassificationReport:
        return ClassificationReport(verdict=verdict, ppt_min_eigenvalue=ppt_min,
                                    pairs=reports, **evidence)

    for r, rep in enumerate(reports, start=1):
        if rep.a_value > BOUNDARY_TOL:
            return report(Verdict.ENTANGLED_BY_PAIR_CRITERION, entangling_pair=r)
    if ppt_min < -BOUNDARY_TOL:
        return report(Verdict.ENTANGLED_BY_PPT)

    # Every vector of a one-factor system is a product, so its eigen-ensemble
    # is a certificate; a rank-1 state's eigenvector is one if it is a product.
    cert = _search.certify(x.vectors, rho) if min(rho.m, rho.n) == 1 or x.count == 1 else None
    if cert is None and len(reports) == 1:
        cert = _constructive_certificate(rho)
    if cert is not None:
        return report(Verdict.SEPARABLE_CERTIFIED, certificate=cert)

    found = _search.minimize(rho, cfg.search)
    verdict = Verdict.INCONCLUSIVE if found.certificate is None else Verdict.SEPARABLE_CERTIFIED
    return report(verdict, certificate=found.certificate, search=found)


def _constructive_certificate(rho: DensityMatrix):
    """Exact route for single-pair systems: the pair ensemble is a full decomposition."""
    from . import decompose as _decompose
    from . import search as _search

    try:
        ensemble = _decompose.single_pair_decomposition(rho, enumerate_pairs(rho.m, rho.n)[0])
    except ValueError:
        return None
    return _search.certify(ensemble.members, rho)
