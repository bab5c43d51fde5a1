"""Property tests: local unitaries, the one-sided verdicts and the range route.

A local unitary U x V maps product states to product states and keeps the
partial transpose's spectrum, so certificates carry over factor by factor
and the PPT test gives the same answer.  It maps the space V of the range
route onto the transformed state's, so dim V and that route's verdict
carry over too.  A unitary mixing of the scaled eigenvectors leaves the
pair spectra unchanged, so classify needs no eigenbasis gauge.
Separately, no state with a negative partial transpose may ever come out
certified, and low-rank mixtures certify without the search, as does
every PPT 2 x 2 state, inside the PPT set or on its boundary, and every
PPT 2 x 3 and 3 x 2 state at the benchmark budget.  Nor does
dim V < l skip the search on a separable mixture whose rank the
tolerances blur.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sepkit as sk
from sepkit.criterion import ClassifyConfig, Verdict
from sepkit.decompose import range_decomposition, range_space
from sepkit.linalg import ScaledEigvecs
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
    """alpha -> U alpha and beta -> V beta certify (U x V) rho (U x V)^dag.

    Up to 6 terms on 2x2 and 8 on 2x3 and 3x2, so that the closed forms
    of those shapes (the single pair, the range route and the subtraction
    route) all supply certificates; up to 2 elsewhere, for the range route."""
    top = {(2, 2): 6, (2, 3): 8, (3, 2): 8}.get((m, n), 2)
    terms = data.draw(st.integers(1, top), label="terms")
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
@given(st.integers(2, 3), st.integers(2, 4), st.data(), SEEDS)
def test_pair_spectra_are_eigenbasis_gauge_invariant(m, n, data, seed):
    """tau -> U tau U^T when X -> U X, and its singular values stay put:
    the lambdas and a-values of every pair agree within 1e-12."""
    rank = data.draw(st.integers(1, m * n), label="rank")
    x = sk.scaled_eigvecs(sk.random_density(m, n, rank=rank, seed=seed))
    u = _unitary(x.count, np.random.default_rng(seed))
    mixed = ScaledEigvecs(vectors=u @ x.vectors, values=x.values)
    for ref, rep in zip(sk.pair_reports(x, m, n), sk.pair_reports(mixed, m, n), strict=True):
        np.testing.assert_allclose(rep.lambdas, ref.lambdas, rtol=0.0, atol=1e-12)
        assert abs(rep.a_value - ref.a_value) <= 1e-12


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


def _certifies_in_closed_form(rho: sk.DensityMatrix) -> None:
    report = sk.classify(rho, ClassifyConfig(search=BUDGET))
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED and report.search is None
    _recheck(report.certificate, rho.matrix)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), SEEDS)
def test_ppt_2x2_states_certify_in_closed_form(rank, seed):
    """On 2 x 2, PPT is separable (Horodecki, PLA 223, 1 (1996)) and the
    single-pair ensemble is a full decomposition, so every PPT state
    certifies without the search.  A random state of rank 1 or 2 is PPT
    with probability 0, so those ranks are drawn as mixtures of that many
    product states; random states of rank 3 and 4 are kept when PPT."""
    if rank <= 2:
        rho = sk.random_separable(2, 2, rank, seed)
    else:
        rho = sk.random_density(2, 2, rank=rank, seed=seed)
        assume(sk.ppt_min_eigenvalue(rho) >= -BOUNDARY_TOL)
    _certifies_in_closed_form(rho)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), SEEDS)
def test_2x2_states_on_the_ppt_boundary_certify_in_closed_form(rank, seed):
    """An NPT state sigma mixed with I/4, p sigma + (1 - p) I/4, bisected
    in p onto the PPT boundary (its partial transpose is singular there),
    still certifies in closed form: the pair's a-value sits at 0."""
    sigma = sk.random_density(2, 2, rank=rank, seed=seed)
    assume(sk.ppt_min_eigenvalue(sigma) < 0.0)
    sigma = sigma.matrix

    def mixture(p):
        return sk.density_matrix(2, 2, p * sigma + (1.0 - p) * np.eye(4) / 4.0)

    lo, hi = 0.0, 1.0  # PPT at lo, NPT at hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if sk.ppt_min_eigenvalue(mixture(mid)) >= 0.0:
            lo = mid
        else:
            hi = mid
    rho = mixture(lo)
    assert 0.0 <= sk.ppt_min_eigenvalue(rho) <= 1e-12
    _certifies_in_closed_form(rho)


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
        cert = certify(ensemble, state)
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


def test_every_ppt_2x3_and_3x2_state_certifies():
    """Completeness in 2x3, where PPT is separable (Horodecki, Horodecki and
    Horodecki, Phys. Lett. A 223, 1 (1996)): at the benchmark budget every
    PPT random_density draw of seeds 0-1499 and every random_separable
    mixture of 2 to 8 terms, seeds 0-9, ends SeparableCertified, on 2x3
    and on 3x2, and each certificate survives a plain-numpy re-check."""
    budget = ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200))
    states = []
    for m, n in ((2, 3), (3, 2)):
        draws = (sk.random_density(m, n, seed=seed) for seed in range(1500))
        states += [rho for rho in draws if sk.ppt_min_eigenvalue(rho) >= -BOUNDARY_TOL]
        states += [sk.random_separable(m, n, terms, seed)
                   for terms in range(2, 9) for seed in range(10)]
    certified = 0
    for rho in states:
        report = sk.classify(rho, budget)
        if report.verdict is Verdict.SEPARABLE_CERTIFIED:
            _recheck(report.certificate, rho.matrix)
            certified += 1
    assert len(states) == 226  # 42 and 44 PPT draws, 70 and 70 mixtures
    assert certified >= 226  # the floor, as measured: every one


def _nearly_rank_deficient(m: int, n: int, terms: int, seed: int, eps: float) -> sk.DensityMatrix:
    """(1 - eps) random_separable + eps |ab><ab|, a and b random unit vectors:
    separable, with an eigenvalue of order eps that blurs the count of dim V."""
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (m, n))
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    mix = (1.0 - eps) * sk.random_separable(m, n, terms, seed).matrix
    return sk.density_matrix(m, n, mix + eps * np.outer(psi, psi.conj()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3), (3, 3), (2, 4), (3, 4)]), st.data(), SEEDS,
       st.floats(-10.0, -5.0))
def test_the_search_walks_every_nearly_rank_deficient_separable_mixture(dims, data, seed,
                                                                        log_eps):
    """Near eps ~ 1e-9 the count at RANK_TOL often reads dim V = l - 1 on
    these separable states, so a bare dim V < l would skip their search.
    The skip needs RANGE_MARGIN and a clear kernel of rho^G (an eps down
    to 1e-10 puts eigenvalues of rho and rho^G on both sides of RANK_TOL)."""
    m, n = dims
    terms = data.draw(st.integers(2, m * n - 1), label="terms")
    rho = _nearly_rank_deficient(m, n, terms, seed, 10.0 ** log_eps)
    assert minimize(rho, SearchConfig(restarts=1, max_iters=1)).k > 0


@pytest.mark.parametrize("state, config", [
    ((2, 3, 3, 54, 1e-8), SearchConfig(restarts=1, max_iters=200)),  # dim V reads l - 1
    ((2, 3, 2, 24, 1e-9), SearchConfig(restarts=1, seed=6)),  # one rho^G eigenvalue < RANK_TOL
], ids=["count_below_the_rank", "kernel_at_rank_tol"])
def test_nearly_rank_deficient_separable_mixtures_still_certify(state, config):
    """Two states of that family that the search certifies.  On the first
    the count at RANK_TOL reads dim V = 3 < l = 4, and only RANGE_MARGIN
    keeps its search; on the second rho's least eigenvalue (1.02e-10) and
    its match in rho^G (0.99e-10) fall on both sides of RANK_TOL, the count
    reads dim V = 1 < l = 3 with a singular value of 0.43, and only the
    kernel test keeps it.  seed=6 starts at the restart that certifies."""
    rho = _nearly_rank_deficient(*state)
    report = sk.classify(rho, ClassifyConfig(search=config))
    assert report.search.range_dim < sk.scaled_eigvecs(rho).count
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED
    _recheck(report.certificate, rho.matrix)
