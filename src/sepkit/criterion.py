"""Spectral separability tests built on the pair operators.

For a state rho = sum_i t_i |e_i><e_i| with scaled eigenvectors
|x_i> = sqrt(t_i) |e_i>, each pair operator B yields a complex symmetric
matrix tau with tau[i, j] = <x_i| B |conj(x_j)>.  Writing lambda_1 >= ...
for the singular values of tau, separability requires

    a = lambda_1 - (lambda_2 + ... + lambda_l')  <=  0

for every pair, where l' counts the lambdas above RANK_TOL; the formula
lives once, in decompose.a_value.  B has four nonzero entries, so tau
has rank <= 4 and its nonzero lambdas are those of a 4 x 4 core
(pair_reports), and no tau is built here, nor in the search, which
evaluates each pair's four entries on its members.  The
lambdas are singular values, so any unitary mixing of the x_i leaves
them unchanged, and classify needs no eigenbasis gauge.  Only
search.pair_taus stacks pairs.tau_matrix, and three things read it:
search.emit_constraints, `sepkit spectrum --json`, and the reference
residual (search.joint_residual and search.residual_gradient).  The
partial transpose test runs alongside as an independent witness.
classify runs _ROUTES in order, so criterion sits above decompose and
search, and the primitives all three share live below them.  The closed
forms come before the search: the eigen-ensemble, a lone pair's ensemble
(2 x 2), the range route, and on 2 x 3 and 3 x 2, where PPT is
separable, the subtraction route; a state it cannot finish (degenerate
ones such as I/6) goes on to the search.  A closed form's ValueError
passes to the next route and is never evidence; search.certify checks
every certificate, each route and the search handing it their members.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import decompose, search
from .linalg import ScaledEigvecs, product_svd, scaled_eigvecs, singular_values
from .linalg import hermitian_eig  # noqa: F401 (traced by perfbench)
from .pairs import PairIndex, _pair_layout
from .pairs import pair_operators  # noqa: F401 (traced by perfbench)
from .pairs import tau_matrix  # noqa: F401 (traced by perfbench)
from .search import SearchConfig, SearchReport, SeparableCertificate
from .states import BOUNDARY_TOL, PRODUCT_TOL, RANK_TOL, DensityMatrix, partial_transpose

__all__ = [
    "SpectralReport",
    "Verdict",
    "ClassifyConfig",
    "ClassificationReport",
    "pair_spectrum",
    "pair_reports",
    "ppt_min_eigenvalue",
    "pure_product_check",
    "classify",
]


def pair_spectrum(tau) -> tuple[np.ndarray, int]:
    """Descending singular values of tau and the count above RANK_TOL.

    Equal to the square roots of the eigenvalues of tau @ conj(tau).
    """
    tau = np.asarray(tau, dtype=complex)
    if np.linalg.norm(tau - tau.T) > 1e-8 * (1.0 + np.linalg.norm(tau)):
        raise ValueError("tau must be complex symmetric")
    lambdas = singular_values(tau)
    return lambdas, int(np.sum(lambdas > RANK_TOL))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Per-pair spectral data: the singular values of tau, l' and the a value."""

    pair: PairIndex
    lambdas: np.ndarray
    l_prime: int
    a_value: float


def pair_reports(x: ScaledEigvecs, m: int, n: int) -> list[SpectralReport]:
    """Spectral reports for every pair, in enumeration order.

    tau_r = V S V^T, where V holds the four columns of conj(X) that B_r
    touches and S is its 4 x 4 sign block.  With the thin QR V = Q R,
    tau_r = Q (R S R^T) Q^T, so its nonzero singular values are those of
    the core R S R^T: one batched QR and one batched SVD give every
    pair's lambdas, padded with exact zeros to length l, and no tau is
    built.  decompose.a_value scores every core at once.  A
    one-dimensional factor has no pairs, so no reports.
    """
    layout = _pair_layout(m, n)
    if x.vectors.shape[1] != m * n:
        raise ValueError(f"vectors have dimension {x.vectors.shape[1]}, operator needs {m * n}")
    # V = conj(X)[:, rows], one 4-column block per pair.
    r = np.linalg.qr(x.vectors.conj().T[layout.rows].swapaxes(1, 2), mode="r")
    core = np.linalg.svd(r @ layout.sign @ r.swapaxes(1, 2), compute_uv=False)
    lambdas = np.zeros((len(layout.pairs), x.count))
    lambdas[:, :core.shape[1]] = core
    a_values = decompose.a_value(core).tolist()
    l_primes = np.count_nonzero(core > RANK_TOL, axis=1).tolist()
    return [SpectralReport(pair=pair, lambdas=lam, l_prime=lp, a_value=a)
            for pair, lam, lp, a in zip(layout.pairs, lambdas, l_primes, a_values)]


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Least eigenvalue of the partial transpose; negative proves entanglement."""
    return float(np.linalg.eigvalsh(partial_transpose(rho))[0])


def pure_product_check(psi, m: int, n: int) -> bool:
    """Whether the coefficient matrix of psi is rank 1 within tolerance.

    True when product_svd's second singular value is <= PRODUCT_TOL times
    the first (always, with a one-dimensional factor).  Raises ValueError
    on a zero or non-finite vector.
    """
    a = np.asarray(psi, dtype=complex).reshape(-1)
    if a.shape[0] != m * n:
        raise ValueError(f"state has length {a.shape[0]}, expected {m * n}")
    if not np.all(np.isfinite(a)):
        raise ValueError("psi has a non-finite entry")
    s = product_svd(a[None, :], m, n)[1][0]
    if s[0] <= 0.0:
        raise ValueError("zero vector has no product test")
    return bool(s[1] <= PRODUCT_TOL * s[0])


class Verdict(enum.Enum):
    SEPARABLE_CERTIFIED = "SeparableCertified"
    ENTANGLED_BY_PAIR_CRITERION = "EntangledByPairCriterion"
    ENTANGLED_BY_PPT = "EntangledByPPT"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class ClassifyConfig:
    """Search budget for the classification pipeline; the tolerances are the module's."""

    search: SearchConfig | None = None  # defaulted in minimize


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Outcome of the full pipeline plus the evidence it was based on."""

    verdict: Verdict
    ppt_min_eigenvalue: float
    pairs: list[SpectralReport]
    entangling_pair: int | None = None
    certificate: SeparableCertificate | None = None
    search: SearchReport | None = None


def _pair_criterion(rho, x, reports, ppt_min, config):
    for r, rep in enumerate(reports, start=1):
        if rep.a_value > BOUNDARY_TOL:
            return dict(verdict=Verdict.ENTANGLED_BY_PAIR_CRITERION, entangling_pair=r)
    return None


def _ppt(rho, x, reports, ppt_min, config):
    return dict(verdict=Verdict.ENTANGLED_BY_PPT) if ppt_min < -BOUNDARY_TOL else None


def _closed_form(members):
    """The route certifying members(rho, x, reports); None or a ValueError from it passes."""
    def route(rho, x, reports, ppt_min, config):
        try:
            z = members(rho, x, reports)
        except ValueError:
            return None
        cert = None if z is None else search.certify(z, rho)
        return None if cert is None else dict(verdict=Verdict.SEPARABLE_CERTIFIED, certificate=cert)
    return route


def _search(rho, x, reports, ppt_min, config):
    found = search.minimize(rho, (config or ClassifyConfig()).search)
    verdict = Verdict.INCONCLUSIVE if found.certificate is None else Verdict.SEPARABLE_CERTIFIED
    return dict(verdict=verdict, certificate=found.certificate, search=found)


# classify's decisions in order: each route returns its verdict's evidence, or None.
_ROUTES = (
    _pair_criterion,  # a > BOUNDARY_TOL on a pair, the first such one named: entangled
    _ppt,  # a partial-transpose eigenvalue below -BOUNDARY_TOL: entangled
    # The eigen-ensemble: with no pairs every vector is a product; at rank 1 it may be.
    _closed_form(lambda rho, x, reports: x.vectors if not reports or x.count == 1 else None),
    # A lone pair's ensemble (2 x 2) is a full decomposition of the state.
    _closed_form(lambda rho, x, reports: decompose.single_pair_decomposition(
        rho, reports[0].pair) if len(reports) == 1 else None),
    # On more pairs, the l terms that the ranges pin down when dim V = l.
    _closed_form(lambda rho, x, reports: decompose.range_decomposition(rho)
                 if len(reports) > 1 else None),
    # 2 x 3 and 3 x 2, where PPT is separable: subtract range products, fit the rest.
    _closed_form(lambda rho, x, reports: decompose.ppt_subtraction_decomposition(rho)),
    _search,  # a failed search is Inconclusive, never entangled
)


def classify(rho: DensityMatrix, config: ClassifyConfig | None = None) -> ClassificationReport:
    """Report the first route of _ROUTES to decide, with the pair spectra and PPT minimum.

    Raises ValueError, before any route runs, when config is not a
    ClassifyConfig or its search is not a SearchConfig.
    """
    if not isinstance(config, ClassifyConfig | None):
        raise ValueError(f"config must be a ClassifyConfig, got {type(config).__name__}")
    if config is not None and not isinstance(config.search, SearchConfig | None):
        raise ValueError(f"config.search must be a SearchConfig, "
                         f"got {type(config.search).__name__}")
    x = scaled_eigvecs(rho)
    ppt_min = ppt_min_eigenvalue(rho)
    reports = pair_reports(x, rho.m, rho.n)
    evidence = next(e for route in _ROUTES
                    if (e := route(rho, x, reports, ppt_min, config)) is not None)
    return ClassificationReport(ppt_min_eigenvalue=ppt_min, pairs=reports, **evidence)
