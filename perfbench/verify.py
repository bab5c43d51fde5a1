"""Independent re-check of every verdict, with plain numpy only.

Nothing here calls sepkit: certificates are rebuilt from their weights
and factor vectors, pair a-values are recomputed from the state's own
eigendecomposition, and the partial-transpose minimum comes from
``corpus.ppt_min``.  A verdict that disagrees with the state's known
answer, or whose evidence does not survive the re-check, is a failure.
``Inconclusive`` never is.
"""

import numpy as np

from corpus import ENTANGLED, SEPARABLE, ppt_min

RECON_TOL = 1e-8
UNIT_TOL = 1e-10
BOUNDARY_TOL = 1e-9


def pair_a_value(mat: np.ndarray, m: int, n: int, r: int) -> float:
    """a = lambda_1 - sum of the other nonzero singular values of pair r's tau.

    Pair r (1-based) is the anchored minor (p, q) in sepkit's enumeration
    order, q ascending then p ascending, with p, q >= 2.  With scaled
    eigenvectors x_i as rows, tau = X* B X*^T, where B has -1 at
    (11, pq) and +1 at (1q, p1), both symmetrized.  The singular values
    of tau do not depend on the gauge of degenerate eigenspaces.
    """
    pairs = [(p, q) for q in range(1, n) for p in range(1, m)]
    p, q = pairs[r - 1]
    w, v = np.linalg.eigh(mat)
    keep = w > 1e-10
    xc = (v[:, keep] * np.sqrt(w[keep])).T.conj()
    i11, ipq, i1q, ip1 = 0, p * n + q, q, p * n
    tau = -np.outer(xc[:, i11], xc[:, ipq]) - np.outer(xc[:, ipq], xc[:, i11])
    tau += np.outer(xc[:, i1q], xc[:, ip1]) + np.outer(xc[:, ip1], xc[:, i1q])
    lam = np.linalg.svd(tau, compute_uv=False)
    lam = lam[lam > 1e-10]
    return float(lam[0] - lam[1:].sum()) if lam.size else 0.0


def certificate_problem(cert, mat: np.ndarray) -> str | None:
    """Why a separable certificate fails the re-check, or None when it holds."""
    w = np.asarray(cert.weights, dtype=float)
    alphas = np.asarray(cert.alphas, dtype=complex)
    betas = np.asarray(cert.betas, dtype=complex)
    if w.ndim != 1 or alphas.shape[0] != w.size or betas.shape[0] != w.size:
        return "certificate arrays do not match in length"
    if np.any(w < 0) or abs(w.sum() - 1.0) > UNIT_TOL:
        return f"weights are negative or sum to {w.sum():.15g}"
    if (np.max(np.abs(np.linalg.norm(alphas, axis=1) - 1)) > UNIT_TOL
            or np.max(np.abs(np.linalg.norm(betas, axis=1) - 1)) > UNIT_TOL):
        return "factor vectors are not unit"
    psi = np.einsum("ka,kb->kab", alphas, betas).reshape(w.size, -1)
    err = float(np.linalg.norm((psi.T * w) @ psi.conj() - mat))
    if err > RECON_TOL:
        return f"certificate reassembles rho only within {err:.3e}"
    return None


def verdict_problem(case, report) -> str | None:
    """Why a classify report is wrong for this case, or None when it holds."""
    verdict = report.verdict.value
    if verdict == "Inconclusive":
        return None
    if verdict == "SeparableCertified":
        if case.known != SEPARABLE:
            return "certified a state known to be entangled"
        return certificate_problem(report.certificate, case.matrix)
    if case.known != ENTANGLED:
        return f"{verdict} on a state known to be separable"
    if verdict == "EntangledByPairCriterion":
        r = report.entangling_pair
        if r is None or not 1 <= r <= (case.m - 1) * (case.n - 1):
            return f"entangling pair {r} out of range"
        a = pair_a_value(case.matrix, case.m, case.n, r)
        if a <= BOUNDARY_TOL:
            return f"pair {r} re-checks to a = {a:.3e}, no violation"
        return None
    if verdict == "EntangledByPPT":
        value = ppt_min(case.matrix, case.m, case.n)
        if value >= -BOUNDARY_TOL:
            return f"partial transpose re-checks to min {value:.3e}, no violation"
        return None
    return f"unknown verdict {verdict!r}"
