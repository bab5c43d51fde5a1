"""Property tests: local unitaries and the one-sided verdicts.

A local unitary U x V maps product states to product states and keeps the
partial transpose's spectrum, so certificates carry over factor by factor
and the PPT test gives the same answer.  Separately, no state with a
negative partial transpose may ever come out certified.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sepkit as sk
from sepkit.criterion import BOUNDARY_TOL, ClassifyConfig, Verdict
from sepkit.search import SearchConfig, certify, check_certificate, minimize

BUDGET = SearchConfig(restarts=1, max_iters=50)
SEEDS = st.integers(0, 2**32 - 1)


def _unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rotate(rho: sk.DensityMatrix, u: np.ndarray, v: np.ndarray) -> sk.DensityMatrix:
    w = np.kron(u, v)
    return sk.density_matrix(rho.m, rho.n, w @ rho.matrix @ w.conj().T)


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
