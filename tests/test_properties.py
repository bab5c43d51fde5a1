"""Property tests: local unitaries, the one-sided verdicts and the range route.

A local unitary U x V maps product states to product states and keeps the
partial transpose's spectrum, so certificates carry over factor by factor
and the PPT test gives the same answer.  It maps the space V of the range
route onto the transformed state's, so dim V and that route's verdict
carry over too.  Separately, no state with a negative partial transpose
may ever come out certified, and low-rank mixtures certify without the
search.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sepkit as sk
from sepkit.criterion import ClassifyConfig, Verdict
from sepkit.decompose import range_decomposition, range_space
from sepkit.search import SearchConfig, certify, check_certificate, minimize
from sepkit.states import BOUNDARY_TOL

BUDGET = SearchConfig(restarts=1, max_iters=50)
SEEDS = st.integers(0, 2**32 - 1)
# Every shape from 2x3 to 4x4 with more than one pair, so classify tries the range route.
DIMS = st.sampled_from([(2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 3), (4, 4)])


def _unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rotate(rho: sk.DensityMatrix, u: np.ndarray, v: np.ndarray) -> sk.DensityMatrix:
    w = np.kron(u, v)
    return sk.density_matrix(rho.m, rho.n, w @ rho.matrix @ w.conj().T)


def _recheck(cert, mat: np.ndarray) -> None:
    """Rebuild a certificate's mixture with plain numpy: nonnegative weights
    summing to the trace, unit factors, and the mixture within 1e-8 of mat."""
    w = np.asarray(cert.weights)
    assert np.all(w >= 0.0) and abs(w.sum() - np.trace(mat).real) <= 1e-10
    for factors in (cert.alphas, cert.betas):
        assert np.max(np.abs(np.linalg.norm(factors, axis=1) - 1.0)) <= 1e-10
    psi = np.einsum("ka,kb->kab", cert.alphas, cert.betas).reshape(w.size, -1)
    assert np.linalg.norm((psi.T * w) @ psi.conj() - mat) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data(), SEEDS)
def test_local_unitaries_carry_certificates(m, n, data, seed):
    """alpha -> U alpha and beta -> V beta certify (U x V) rho (U x V)^dag."""
    terms = data.draw(st.integers(1, 6 if (m, n) == (2, 2) else 2), label="terms")
    rho = sk.random_separable(m, n, terms, seed)
    cert = sk.classify(rho, ClassifyConfig(search=BUDGET)).certificate
    assume(cert is not None)
    rng = np.random.default_rng(seed)
    u, v = _unitary(m, rng), _unitary(n, rng)
    mapped = dataclasses.replace(cert, alphas=cert.alphas @ u.T, betas=cert.betas @ v.T)
    check_certificate(mapped, _rotate(rho, u, v).matrix)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data(), SEEDS)
def test_ppt_verdict_is_local_unitary_invariant(m, n, data, seed):
    """The partial transpose's least eigenvalue, and so its verdict, survive U x V."""
    rank = data.draw(st.integers(1, m * n), label="rank")
    rho = sk.random_density(m, n, rank=rank, seed=seed)
    rng = np.random.default_rng(seed)
    rotated = _rotate(rho, _unitary(m, rng), _unitary(n, rng))
    cfg = ClassifyConfig(search=BUDGET)
    before, after = sk.classify(rho, cfg), sk.classify(rotated, cfg)
    assert abs(before.ppt_min_eigenvalue - after.ppt_min_eigenvalue) <= 1e-12
    npt = before.ppt_min_eigenvalue < -BOUNDARY_TOL
    assert npt == (after.ppt_min_eigenvalue < -BOUNDARY_TOL)
    entangled = {Verdict.ENTANGLED_BY_PPT, Verdict.ENTANGLED_BY_PAIR_CRITERION}
    if npt:
        assert {before.verdict, after.verdict} <= entangled


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 3), st.integers(2, 3), st.data(), SEEDS)
def test_npt_states_are_never_certified(m, n, data, seed):
    """Neither classify, nor the search, nor the eigen-ensemble certifies a
    state whose partial transpose has an eigenvalue below -BOUNDARY_TOL."""
    rank = data.draw(st.integers(1, m * n), label="rank")
    rho = sk.random_density(m, n, rank=rank, seed=seed)
    assume(sk.ppt_min_eigenvalue(rho) < -BOUNDARY_TOL)
    assert sk.classify(rho, ClassifyConfig(search=BUDGET)).certificate is None
    assert minimize(rho, BUDGET).certificate is None
    assert certify(sk.scaled_eigvecs(rho).vectors, rho) is None


@settings(max_examples=50, deadline=None)
@given(DIMS, st.data(), SEEDS)
def test_low_rank_mixtures_certify_without_the_search(dims, data, seed):
    """A mixture of at most min(m, n) product states is pinned by its
    ranges: classify certifies it in closed form with at most l terms."""
    m, n = dims
    terms = data.draw(st.integers(1, min(m, n)), label="terms")
    rho = sk.random_separable(m, n, terms, seed)
    report = sk.classify(rho, ClassifyConfig(search=BUDGET))
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED and report.search is None
    assert len(report.certificate.weights) <= sk.scaled_eigvecs(rho).count
    _recheck(report.certificate, rho.matrix)


@settings(max_examples=50, deadline=None)
@given(DIMS, st.data(), SEEDS)
def test_range_route_verdict_is_local_unitary_invariant(dims, data, seed):
    """range_decomposition refuses rho exactly when it refuses (U x V) rho
    (U x V)^dag, and otherwise certifies both with the same number of terms."""
    m, n = dims
    terms = data.draw(st.integers(1, m * n), label="terms")
    rho = sk.random_separable(m, n, terms, seed)
    rng = np.random.default_rng(seed)
    terms_found = []
    for state in (rho, _rotate(rho, _unitary(m, rng), _unitary(n, rng))):
        try:
            ensemble = range_decomposition(state)
        except ValueError:
            terms_found.append(None)
            continue
        cert = certify(ensemble.members, state)
        assert cert is not None
        _recheck(cert, state.matrix)
        terms_found.append(len(cert.weights))
    assert terms_found[0] == terms_found[1]


@settings(max_examples=50, deadline=None)
@given(DIMS, st.data(), SEEDS)
def test_range_dim_is_local_unitary_invariant_and_at_least_the_rank(dims, data, seed):
    """dim V is the same for rho and (U x V) rho (U x V)^dag, and a
    separable mixture has dim V >= l: the premise of both the search's
    cap at max(l, dim V) and the entanglement proof dim V < l."""
    m, n = dims
    terms = data.draw(st.integers(1, m * n), label="terms")
    rho = sk.random_separable(m, n, terms, seed)
    rng = np.random.default_rng(seed)
    dim = range_space(rho)[0]
    assert dim == range_space(_rotate(rho, _unitary(m, rng), _unitary(n, rng)))[0]
    assert dim >= sk.scaled_eigvecs(rho).count
