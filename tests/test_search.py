"""Tests for the joint residual, its gradient, and the ensemble search."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import sepkit as sk
import sepkit.products as products_module
import sepkit.search as search_module
from sepkit.criterion import pair_reports
from sepkit.linalg import random_orthonormal_columns, reorthonormalize, scaled_eigvecs
from sepkit.pairs import pair_operators, pair_residual
from sepkit.search import (
    CertificateError,
    _member_kernel,
    _objective_and_gradient,
    _retract,
    _tangent_project,
    SearchConfig,
    certificate_from_members,
    certify,
    check_certificate,
    emit_constraints,
    extract_certificate,
    joint_residual,
    minimize,
    pair_taus,
    render_constraints,
    residual_gradient,
)

CONSTRAINTS_2X4 = """pair 1: 2 2
2 4 1 0
3 3 -1 0
pair 2: 2 3
2 5 1 0
3 4 -1 0
pair 3: 2 4
1 2 1 0
3 5 -1 0
"""


def _taus(rho, basis_override=None):
    x = scaled_eigvecs(rho, basis_override=basis_override)
    return x, pair_taus(x, rho.m, rho.n)


def test_joint_residual_at_identity_on_reference_basis():
    """With u = I the members are the basis vectors themselves; only the
    first pair has nonzero diagonal tau entries, a single -1/4."""
    _, taus = _taus(sk.bound_2x4(), sk.bound_2x4_basis())
    assert joint_residual(np.eye(5), taus) == pytest.approx(1 / 16, abs=1e-15)


def test_joint_residual_matches_member_residuals():
    """F(u) is the summed squared pair residuals of the members
    z_i = sum_j u_ij x_j, for any orthonormal u, and its gradient is
    4 sum_r conj(d_r) conj(u) tau_r over the same residuals d_r, pair by pair.
    A 1 x n state has no pairs: an empty (0, l, l) stack, F = 0 and a zero
    gradient."""
    for m, n, seed in [(2, 2, 0), (2, 3, 1), (3, 3, 2), (1, 3, 3)]:
        rho = sk.random_density(m, n, seed=seed)
        x, taus = _taus(rho)
        ops = pair_operators(m, n)
        assert taus.shape == (len(ops), x.count, x.count)
        for k in (x.count, x.count + 2):
            u = random_orthonormal_columns(k, x.count, seed=seed + 5)
            members = u @ x.vectors
            brute = sum(abs(pair_residual(b, z)) ** 2
                        for b in ops for z in members)
            assert joint_residual(u, taus) == pytest.approx(brute, rel=1e-12)
            grad = sum(4.0 * np.conj([pair_residual(b, z) for z in members])[:, None]
                       * (u.conj() @ tau) for b, tau in zip(ops, taus))
            np.testing.assert_allclose(residual_gradient(u, taus), grad, rtol=0, atol=1e-14)


def test_joint_residual_checks_orthonormality():
    _, taus = _taus(sk.werner_2x2(0.2))
    u = random_orthonormal_columns(4, 4, seed=0)
    with pytest.raises(ValueError, match="orthonormal"):
        joint_residual(1.1 * u, taus)
    with pytest.raises(ValueError, match="expected"):
        joint_residual(u[:, :2], taus)
    with pytest.raises(ValueError, match="at least as many rows"):
        joint_residual(u[:2, :], taus)


def test_joint_residual_rejects_a_non_finite_u():
    """A NaN norm is not above the tolerance, so the check is written to fail on it."""
    _, taus = _taus(sk.werner_2x2(0.2))
    with pytest.raises(ValueError, match="orthonormal"):
        joint_residual(np.full((4, 4), np.nan), taus)


def test_residual_gradient_matches_finite_differences():
    """Central differences along random complex directions reproduce
    Re<d, grad> to six digits, with one to four pairs on the batched axis."""
    eps = 1e-7
    rng = np.random.default_rng(42)
    for m, n, seed in [(2, 2, 3), (2, 3, 4), (2, 4, 5), (3, 3, 6)]:
        rho = sk.random_density(m, n, seed=seed)
        x, taus = _taus(rho)
        u = random_orthonormal_columns(x.count + 1, x.count, seed=9)
        g = residual_gradient(u, taus)
        for _ in range(10):
            d = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
            d /= np.linalg.norm(d)
            fd = (joint_residual(u + eps * d, taus)
                  - joint_residual(u - eps * d, taus)) / (2 * eps)
            assert fd == pytest.approx(float(np.vdot(d, g).real), abs=5e-7)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("rank", [3, None], ids=["rank3", "full_rank"])
def test_member_kernel_is_the_dense_objective(m, n, rank):
    """The search evaluates F and its gradient on the members; both equal
    joint_residual and residual_gradient on the stacked taus to 1e-12
    relative, at k = l and k = l^2."""
    rho = sk.random_density(m, n, rank=rank, seed=10 * m + n)
    x, taus = _taus(rho)
    kernel = _member_kernel(x, m, n)
    for k in (x.count, x.count ** 2):
        u = random_orthonormal_columns(k, x.count, seed=k)
        f, g, w = _objective_and_gradient(u, kernel)
        assert f == pytest.approx(joint_residual(u, taus), rel=1e-12, abs=0)
        dense = residual_gradient(u, taus)
        assert np.linalg.norm(g - dense) <= 1e-12 * np.linalg.norm(dense)
        np.testing.assert_array_equal(w, u.conj())


def test_minimize_builds_no_tau(monkeypatch):
    """The search reads the members, never a tau matrix."""
    def no_taus(*args):
        raise AssertionError("a tau was built")

    monkeypatch.setattr(search_module, "pair_taus", no_taus)
    monkeypatch.setattr(search_module, "tau_matrix", no_taus)
    report = minimize(sk.bound_2x4(), SearchConfig(restarts=1, max_iters=200))
    assert report.certificate is not None and report.k == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_joint_residual_rejects_non_finite_taus(bad):
    """A ValueError, where the residual and its gradient would be nan."""
    _, taus = _taus(sk.werner_2x2(0.2))
    taus[0, 1, 2] = taus[0, 2, 1] = bad
    u = random_orthonormal_columns(4, 4, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        joint_residual(u, taus)
    with pytest.raises(ValueError, match="non-finite"):
        residual_gradient(u, taus)
    with pytest.raises(ValueError, match=r"square tau matrices, got shape \(1, 4, 3\)"):
        joint_residual(u, taus[:, :, :3])


def test_retract_is_the_positive_diagonal_qr_factor():
    """Along a tangent step, Cholesky QR gives the Householder factor of
    reorthonormalize, for square and tall u and steps from tiny to huge.
    The square cases at a = 1e6 need the second pass: one pass leaves
    errors of 2e-12 and 7e-11 there."""
    for m, n, extra, seed in [(2, 3, 0, 3), (3, 3, 0, 1), (2, 3, 24, 0), (3, 3, 31, 0)]:
        x, taus = _taus(sk.random_density(m, n, seed=4))
        u = random_orthonormal_columns(x.count + extra, x.count, seed=seed)
        t = _tangent_project(u, residual_gradient(u, taus), u.conj())
        for a in (1e-10, 1.0, 1e6):
            q = _retract(u - a * t)
            np.testing.assert_allclose(q, reorthonormalize(u - a * t), rtol=0, atol=1e-12)
            np.testing.assert_allclose(q.conj().T @ q, np.eye(x.count), rtol=0, atol=1e-12)


def test_minimize_certifies_werner_noise():
    rho = sk.werner_2x2(0.2)
    report = minimize(rho, SearchConfig())
    assert report.certificate is not None
    assert report.restarts_used == 1
    assert report.best_residual <= 1e-10
    err = np.linalg.norm(report.certificate.density() - rho.matrix)
    assert err < 1e-8
    check_certificate(report.certificate, rho.matrix)


def test_minimize_certifies_random_separable_mixture():
    rho = sk.random_separable(2, 3, terms=10, seed=2)
    report = minimize(rho, SearchConfig())
    assert report.certificate is not None
    assert report.k == 12
    err = np.linalg.norm(report.certificate.density() - rho.matrix)
    assert err < 1e-8


def test_minimize_certifies_bound_2x4():
    """The rank-5 2x4 state admits an exact product decomposition; the
    search lands on one from the first random start."""
    rho = sk.bound_2x4()
    report = minimize(rho, SearchConfig())
    assert report.certificate is not None
    assert report.k == 5
    assert report.best_residual < 1e-20
    err = np.linalg.norm(report.certificate.density() - rho.matrix)
    assert err < 1e-8


def test_minimize_cannot_certify_entangled_states():
    """Bell has rank l = 1 and dim V = 0 (its partial transpose's negative
    eigenvector counts as kernel), so no size is walked and the residual
    stays infinite.  No certificate can appear."""
    report = minimize(sk.bell(), SearchConfig(restarts=3))
    assert report.certificate is None
    assert report.k == 0
    assert report.best_residual == np.inf


def test_minimize_is_deterministic():
    cfg = SearchConfig(restarts=5, seed=11)
    rho = sk.random_separable(2, 2, terms=4, seed=6)
    r1 = minimize(rho, cfg)
    r2 = minimize(rho, cfg)
    assert r1.best_residual == r2.best_residual
    assert r1.restarts_used == r2.restarts_used
    assert r1.iterations_used == r2.iterations_used
    np.testing.assert_array_equal(r1.best_u, r2.best_u)


def walked(monkeypatch, rho, config):
    """Every walk minimize asks _walk for, as lists of its restarts
    (k, seed index, fitted, paused), and minimize's report."""
    seen, real = [], search_module._walk

    def spy(*args):
        seen.append(list(real(*args)))
        return iter(seen[-1])

    monkeypatch.setattr(search_module, "_walk", spy)
    return seen, minimize(rho, config)


@pytest.mark.parametrize("rho, schedule", [
    (sk.bell(), []),                                     # l = 1, dim V = 0
    (sk.tiles(), []),                                    # l = 4 in 3x3, dim V = 1
    (sk.horodecki_2x4(0.5), []),                         # l = 5 in 2x4, dim V = 1
    (sk.bound_2x4(), [5, 9]),                            # l = 5, dim V = 9
    (sk.random_separable(2, 3, terms=8, seed=0), [12, 6]),  # full rank, dim V = l^2
    (sk.random_separable(4, 6, terms=26, seed=0), [24, 48, 96, 192, 384, 576]),  # mn > 20
], ids=["bell", "tiles", "horodecki_b0.5", "bound_2x4", "full_rank", "full_rank_4x6"])
def test_schedule_doubles_from_the_rank_up_to_dim_v(monkeypatch, rho, schedule):
    """A separable state mixes at most dim V products (l^2 when rho^G has
    no kernel), so the walk stops at max(l, dim V), which the report holds;
    with dim V below the rank no decomposition exists and nothing is walked.
    At full rank up to mn = 20 the walk keeps only the sizes a fit is tried
    at, largest first, so it starts at 2l; above mn = 20 no fit is tried
    and the whole walk to l^2 stays."""
    (walk,), report = walked(monkeypatch, rho, SearchConfig(restarts=1, max_iters=1))
    l = scaled_eigvecs(rho).count
    assert [k for k, _, _, _ in walk] == schedule
    assert all(i == 0 for _, i, _, _ in walk)
    if report.range_dim < l:
        assert schedule == []
    elif l == rho.dim <= products_module._POLISH_MAX_DIM:
        assert schedule[0] == 2 * l
    else:
        assert schedule[-1] == max(l, report.range_dim)


def test_full_rank_3x4_certifies_at_the_first_size_walked():
    """At full-rank 3x4, 2k(m + n - 1) = l^2 at k = l = 12, so no fit is
    tried there and the walk starts at k = 24: at the default budget the
    first restart certifies, instead of 50 restarts of 2000 iterations at
    k = 12 that all ended without a certificate."""
    report = minimize(sk.random_separable(3, 4, 12, seed=1), SearchConfig())
    assert report.certificate is not None
    assert (report.k, report.restarts_used) == (24, 1)


def test_full_rank_2x5_certifies_at_l_after_one_restart_at_2l():
    """This full-rank 2x5 mixture certifies only at k = l = 10.  The walk
    interleaves the fitted sizes restart by restart, so at the default
    budget k = 10 runs second, rather than after all 50 restarts at k = 20
    (100 087 iterations)."""
    report = minimize(sk.random_separable(2, 5, 10, seed=25), SearchConfig())
    assert report.certificate is not None
    assert (report.k, report.restarts_used) == (10, 2)


def test_the_walk_is_lazy():
    """minimize draws the restarts one at a time, so a budget of a million
    restarts costs nothing until they run: a full-rank 2x4 state that
    certifies in its first restart peaks near 0.2 MB, where a list of
    every restart of both sizes takes about 190 MB."""
    rho = sk.random_separable(2, 4, 10, seed=1)
    tracemalloc.start()
    try:
        report = minimize(rho, SearchConfig(restarts=10**6, max_iters=200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.certificate is not None and report.restarts_used == 1
    assert peak < 10 * 2**20


@pytest.mark.parametrize("rho", [
    sk.random_separable(3, 3, 9, seed=1),    # certifies at k = 2l only
    sk.random_separable(2, 5, 10, seed=25),  # certifies at k = l only
    sk.random_separable(2, 4, 10, seed=1),   # certifies at both sizes
], ids=["3x3", "2x5", "2x4"])
def test_full_rank_walk_order_changes_no_verdict(monkeypatch, rho):
    """Each restart's work depends only on (k, seed + i), so walking the
    fitted sizes 2l, l restart by restart certifies exactly when one of
    its restarts walked alone does, and then with the certificate and k
    of the first such restart in walk order, byte for byte."""
    cfg = SearchConfig(restarts=2, max_iters=200)
    (walk,), report = walked(monkeypatch, rho, cfg)
    d = rho.dim
    assert walk == [(2 * d, 0, True, True), (d, 0, True, True),
                    (2 * d, 1, True, True), (d, 1, True, True)]
    singles = []
    for step in walk:
        monkeypatch.setattr(search_module, "_walk", lambda *args, step=step: iter([step]))
        singles.append(minimize(rho, cfg))
    certified = [single for single in singles if single.certificate is not None]
    assert (report.certificate is not None) == bool(certified)
    if certified:
        first = certified[0]
        assert report.k == first.k
        for name in ("weights", "alphas", "betas"):
            assert (getattr(report.certificate, name).tobytes()
                    == getattr(first.certificate, name).tobytes())


def test_full_rank_failure_stops_after_the_fitted_sizes():
    """A full-rank 3x3 mixture whose fits all fail at k = 9 and 18 ends
    Inconclusive after those two sizes, 400 iterations, rather than walking
    on to k = 81 (1000 iterations)."""
    rho = sk.random_separable(3, 3, 9, seed=0)
    report = sk.classify(rho, sk.ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200)))
    assert report.verdict is sk.Verdict.INCONCLUSIVE
    assert report.certificate is None
    assert report.search.iterations_used <= 400


def symmetric_mixture(terms: int, seed: int) -> sk.DensityMatrix:
    """A 2 x 2 mixture of products |aa>: Dirichlet weights, each a a
    normalised complex Gaussian, drawn in that order."""
    rng = np.random.default_rng(seed)
    mat = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        psi = np.kron(a, a)
        mat += w * np.outer(psi, psi.conj())
    return sk.density_matrix(2, 2, mat)


@pytest.mark.parametrize("terms, seed", [(4, 2), (6, 1), (6, 2), (6, 3)])
def test_the_walk_certifies_above_the_rank(terms, seed):
    """A 2 x 2 mixture of |aa> lies in the symmetric subspace: rank l = 3,
    below full rank, with dim V = 9, so the walk is 3, 6, 9.  At the budget
    the k = 3 restart ends without a certificate and the k = 6 = 2l one
    certifies: a walk cut to k = l would lose these states.  classify
    certifies them in closed form, by the single-pair route."""
    rho = symmetric_mixture(terms, seed)
    cfg = SearchConfig(restarts=1, max_iters=200)
    report = minimize(rho, cfg)
    assert (scaled_eigvecs(rho).count, report.range_dim) == (3, 9)
    assert (report.k, report.restarts_used) == (6, 2)
    check_certificate(report.certificate, rho.matrix)
    classified = sk.classify(rho, sk.ClassifyConfig(search=cfg))
    assert classified.verdict is sk.Verdict.SEPARABLE_CERTIFIED
    assert classified.search is None
    check_certificate(classified.certificate, rho.matrix)


@pytest.mark.parametrize("rho, restarts, iterations, k_max", [
    (sk.horodecki_2x4(0.5), 0, 0, 5),
    (sk.tiles(), 0, 0, 4),
], ids=["horodecki_b0.5", "tiles"])
def test_capped_schedule_bounds_the_work_on_ppt_entangled_states(rho, restarts, iterations,
                                                                  k_max):
    """dim V = 1 is below the rank, so no size runs: at restarts=1,
    max_iters=200 it spends none of the budget, and finds no certificate."""
    report = minimize(rho, SearchConfig(restarts=1, max_iters=200))
    assert report.certificate is None
    assert report.range_dim == 1
    assert (report.restarts_used, report.iterations_used) == (restarts, iterations)
    assert report.k <= k_max


@pytest.mark.parametrize("budget", [{"restarts": 0}, {"max_iters": 0}, {"restarts": -1}])
def test_minimize_rejects_an_empty_budget(budget):
    with pytest.raises(ValueError, match="must be >= 1"):
        minimize(sk.werner_2x2(0.2), SearchConfig(**budget))


@pytest.mark.parametrize("budget, name", [
    ({"restarts": 2.5}, "restarts"), ({"max_iters": 2.5}, "max_iters"),
    ({"seed": 1.5}, "seed"), ({"seed": 2.0}, "seed"), ({"max_iters": "200"}, "max_iters"),
    ({"restarts": None}, "restarts"),
])
def test_minimize_rejects_a_non_integer_budget_up_front(monkeypatch, budget, name):
    """A ValueError, before the search's kernel is built."""
    def no_kernel(*args):
        raise AssertionError("kernel built before the budget was checked")

    monkeypatch.setattr(search_module, "_member_kernel", no_kernel)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {budget[name]!r}"):
        minimize(sk.werner_2x2(0.2), SearchConfig(**budget))


def test_minimize_rejects_a_negative_seed_up_front(monkeypatch):
    """Like the budget, the seed is checked before the search's kernel is built."""
    def no_kernel(*args):
        raise AssertionError("kernel built before the seed was checked")

    monkeypatch.setattr(search_module, "_member_kernel", no_kernel)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        minimize(sk.werner_2x2(0.2), SearchConfig(seed=-1))


def test_minimize_rejects_a_config_of_another_type():
    """A ClassifyConfig is not a search budget: a ValueError naming the type."""
    with pytest.raises(ValueError, match="config must be a SearchConfig, got ClassifyConfig"):
        minimize(sk.werner_2x2(0.2), sk.ClassifyConfig())


def test_search_config_holds_only_the_budget():
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "restarts", "max_iters", "seed"]
    assert [f.name for f in dataclasses.fields(sk.ClassifyConfig)] == ["search"]


def test_certify_returns_checked_certificates_only():
    """certify is the one gate: product members that rebuild rho give a
    certificate that passes check_certificate; anything else gives None."""
    rho = sk.bound_2x4()
    report = minimize(rho, SearchConfig(restarts=5))
    cert = report.certificate
    members = np.sqrt(cert.weights)[:, None] * np.einsum("ia,ib->iab", cert.alphas,
                                                        cert.betas).reshape(5, 8)
    again = certify(members, rho)
    check_certificate(again, rho.matrix)
    np.testing.assert_allclose(again.density(), rho.matrix, atol=1e-12)
    assert certify(members[:4], rho) is None  # products, but not all of rho
    assert certify(scaled_eigvecs(rho, basis_override=sk.bound_2x4_basis()).vectors,
                   rho) is None  # rebuild rho, but not all products
    x = scaled_eigvecs(rho)
    u = report.best_u
    np.testing.assert_array_equal(certify(u @ x.vectors, rho).weights,
                                  extract_certificate(u, x, 2, 4).weights)


def test_extract_certificate_requires_product_members():
    """The reference eigenbasis of the 2x4 state contains entangled
    vectors, so u = I cannot be certified."""
    x = scaled_eigvecs(sk.bound_2x4(), basis_override=sk.bound_2x4_basis())
    with pytest.raises(CertificateError):
        extract_certificate(np.eye(5), x, 2, 4)


def test_certificate_from_members():
    rng = np.random.default_rng(5)
    weights = np.array([0.5, 0.3, 0.2])
    members = []
    for w in weights:
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        beta = rng.normal(size=3) + 1j * rng.normal(size=3)
        alpha /= np.linalg.norm(alpha)
        beta /= np.linalg.norm(beta)
        members.append(np.sqrt(w) * np.kron(alpha, beta))
    cert = certificate_from_members(np.array(members), 2, 3)
    np.testing.assert_allclose(np.sort(cert.weights), np.sort(weights), atol=1e-12)
    density = np.zeros((6, 6), dtype=complex)
    for z in members:
        density += np.outer(z, z.conj())
    np.testing.assert_allclose(cert.density(), density, atol=1e-12)
    for a, b in zip(cert.alphas, cert.betas):
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_members_are_not_certified(bad):
    """certificate_from_members raises CertificateError, so certify returns
    None as documented instead of an SVD's LinAlgError."""
    rho = sk.werner_2x2(0.2)
    members = scaled_eigvecs(rho).vectors.copy()
    members[0, 0] = bad
    with pytest.raises(CertificateError, match="non-finite"):
        certificate_from_members(members, 2, 2)
    assert certify(members, rho) is None
    assert certify(np.full((2, 4), bad), rho) is None


@pytest.mark.parametrize("members", [np.ones(4), np.ones((1, 2, 2)), np.ones((4, 3))],
                         ids=["flat", "stack", "wide"])
def test_members_must_be_a_k_by_mn_array(members):
    """A flat vector, a stack of coefficient matrices or rows of the wrong
    length raise ValueError naming the shape: not a CertificateError, which
    certify would turn into None, nor numpy's reshape error."""
    message = rf"members must be a \(k, 4\) array, got shape {re.escape(str(members.shape))}"
    with pytest.raises(ValueError, match=message) as info:
        certify(members, sk.werner_2x2(0.2))
    assert not isinstance(info.value, CertificateError)
    with pytest.raises(ValueError, match=message):
        certificate_from_members(members, 2, 2)


def test_certificate_from_members_reports_offender():
    good = np.kron([1.0, 0.0], [1.0, 0.0]).astype(complex)
    bad = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    members = np.vstack([good / np.sqrt(2), bad / np.sqrt(2)])
    with pytest.raises(CertificateError) as info:
        certificate_from_members(members, 2, 2)
    assert info.value.member_index == 1
    with pytest.raises(CertificateError, match="all members have negligible weight") as info:
        certificate_from_members(np.vstack([1e-8 * good, 1e-8 * bad]), 2, 2)
    assert info.value.member_index is None


def test_check_certificate_validates_weights_and_reconstruction():
    rho = sk.werner_2x2(0.2)
    cert = minimize(rho, SearchConfig()).certificate
    check_certificate(cert, rho.matrix)
    with pytest.raises(CertificateError, match="reassembles"):
        check_certificate(cert, sk.werner_2x2(0.3).matrix)
    shrunk = type(cert)(m=cert.m, n=cert.n, weights=cert.weights * 0.9,
                        alphas=cert.alphas, betas=cert.betas)
    with pytest.raises(CertificateError, match="weights sum"):
        check_certificate(shrunk, rho.matrix)
    with pytest.raises(CertificateError, match=r"2 x 2 certificate rebuilds a 4 x 4 matrix, "
                                               r"not one of shape \(6, 6\)"):
        check_certificate(cert, np.eye(6) / 6)


@pytest.mark.parametrize("field, message", [("weights", "weights sum"),
                                            ("alphas", "reassembles")])
def test_check_certificate_rejects_non_finite_fields(field, message):
    """NaN weights sum to NaN and NaN alphas rebuild NaN: neither passes the gate."""
    rho = sk.werner_2x2(0.2)
    cert = minimize(rho, SearchConfig()).certificate
    bad = dataclasses.replace(cert, **{field: np.full_like(getattr(cert, field), np.nan)})
    with pytest.raises(CertificateError, match=message):
        check_certificate(bad, rho.matrix)


def test_certificate_density_is_the_sum_of_kron_terms():
    """One product of the kron rows gives the per-term sum, up to rounding."""
    rng = np.random.default_rng(4)
    alphas = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    betas = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    cert = sk.SeparableCertificate(m=3, n=4, weights=rng.dirichlet(np.ones(7)),
                                   alphas=alphas / np.linalg.norm(alphas, axis=1)[:, None],
                                   betas=betas / np.linalg.norm(betas, axis=1)[:, None])
    terms = [w * np.outer(np.kron(a, b), np.kron(a, b).conj())
             for w, a, b in zip(cert.weights, cert.alphas, cert.betas)]
    np.testing.assert_allclose(cert.density(), np.sum(terms, axis=0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("mat", [np.eye(4) / 4 * (1 + 5e-9),
                                 np.diag([1 + 0.9e-9, 0, 0, -0.9e-9])],
                         ids=["trace_1+5e-9", "eigenvalue_-0.9e-9"])
def test_weight_sum_is_held_to_the_trace(mat):
    """A valid state's trace is 1 only within STATE_TOL, and an exact
    decomposition's weights sum to its positive eigenvalues: both states
    certify at the benchmark budget, and weights scaled by 1 + 1e-7 are
    still rejected."""
    rho = sk.density_matrix(2, 2, mat)
    report = sk.classify(rho, sk.ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200)))
    assert report.verdict is sk.Verdict.SEPARABLE_CERTIFIED
    cert = report.certificate
    check_certificate(cert, rho.matrix)
    scaled = dataclasses.replace(cert, weights=cert.weights * (1 + 1e-7))
    with pytest.raises(CertificateError, match="weights sum"):
        check_certificate(scaled, rho.matrix)


def test_emit_and_render_constraints():
    """The exported quadratic system for the 2x4 state, normalized to its
    largest coefficient, is a frozen text block."""
    x = scaled_eigvecs(sk.bound_2x4(), basis_override=sk.bound_2x4_basis())
    cs = emit_constraints(x, 2, 4)
    assert render_constraints(cs) == CONSTRAINTS_2X4
    assert [len(pc.terms) for pc in cs.pairs] == [2, 2, 2]


def test_emit_constraints_rejects_non_finite_vectors():
    """A ValueError, where NaN coefficients would all be dropped as negligible."""
    x = sk.ScaledEigvecs(vectors=np.full((4, 4), np.nan), values=np.full(4, np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        emit_constraints(x, 2, 2)
    with pytest.raises(ValueError, match="non-finite"):
        emit_constraints(x, 1, 4)


def test_emitted_constraints_equal_member_residuals():
    """Substituting the rows of u, sum_{j<=j'} w_jj' conj(u_ij u_ij') is the
    member residual <z_i| B^r |conj(z_i)>."""
    for rho in (sk.bound_2x4(), sk.random_density(2, 3, seed=13)):
        x = scaled_eigvecs(rho)
        cs = emit_constraints(x, rho.m, rho.n)
        ops = pair_operators(rho.m, rho.n)
        for k in (x.count, x.count + 1):
            u = random_orthonormal_columns(k, x.count, seed=3)
            members = u @ x.vectors
            values = np.array([sum(w * np.conj(u[:, j - 1] * u[:, jp - 1]) for j, jp, w in pc.terms)
                               for pc in cs.pairs])
            brute = np.array([[pair_residual(b, z) for z in members] for b in ops])
            np.testing.assert_allclose(values, brute, atol=1e-12)


@pytest.mark.parametrize("m, n, least", [(3, 3, 9), (2, 4, 8)])
def test_minimize_certifies_rank3_mixtures_at_fixed_budget(m, n, least, monkeypatch):
    """One restart of at most 200 iterations per size certifies nearly all
    rank-3 mixtures, no restart runs past its iteration cap, and the
    nonmonotone line search accepts almost every first trial step (a
    monotone test needs about 1.15 trial points per iteration here)."""
    kernel = search_module._objective_and_gradient
    evaluations = []

    def counted(u, taus):
        evaluations.append(u.shape)
        return kernel(u, taus)

    monkeypatch.setattr(search_module, "_objective_and_gradient", counted)
    cfg = SearchConfig(restarts=1, max_iters=200)
    certified = iterations = restarts = 0
    for seed in range(10):
        rho = sk.random_separable(m, n, terms=3, seed=seed)
        report = minimize(rho, cfg)
        assert report.iterations_used <= report.restarts_used * cfg.max_iters
        iterations += report.iterations_used
        restarts += report.restarts_used
        if report.certificate is not None:
            check_certificate(report.certificate, rho.matrix)
            certified += 1
    assert certified >= least
    assert len(evaluations) - restarts <= 1.08 * iterations


def test_minimize_counts_rejected_extractions(monkeypatch):
    """At k = 24 this full-rank 2x3 mixture reaches F ~ 3e-27 on members
    whose anchored minors vanish without being products: both restarts
    reach tol_residual and both extractions are rejected and counted.  No
    fit is tried at k = 4l (_walk), so nothing certifies."""
    assert minimize(sk.werner_2x2(0.2), SearchConfig()).rejected_extractions == 0
    rho = sk.random_separable(2, 3, terms=6, seed=1)
    monkeypatch.setattr(search_module, "_walk",
                        lambda *args: ((24, i, False, False) for i in range(args[-1])))
    report = minimize(rho, SearchConfig(restarts=2))
    assert report.certificate is None
    assert report.rejected_extractions == report.restarts_used == 2
    assert report.polish_attempts == 0
    assert report.best_residual <= 1e-10
    with pytest.raises(CertificateError):
        extract_certificate(report.best_u, scaled_eigvecs(rho), 2, 3)


def test_an_extracted_certificate_comes_with_its_own_point(monkeypatch):
    """Restart 0 ends at a smaller F than restart 1, but its extraction is
    rejected; restart 1's certificate is reported with restart 1's point,
    so best_u extracts to that very certificate and best_residual is F
    there, not the earlier restart's least residual."""
    rho = sk.random_separable(2, 3, 2, seed=3)
    calls = []

    def reject_first(*args):
        calls.append(args)
        return None if len(calls) == 1 else certify(*args)

    monkeypatch.setattr(search_module, "_polish", lambda *args: None)
    monkeypatch.setattr(search_module, "certify", reject_first)
    report = minimize(rho, SearchConfig(restarts=2, max_iters=200))
    assert (report.restarts_used, report.rejected_extractions, len(calls)) == (2, 1, 2)
    assert report.certificate is not None and report.best_u.shape == (report.k, 2)
    x = scaled_eigvecs(rho)
    cert = extract_certificate(report.best_u, x, 2, 3)
    for field in ("weights", "alphas", "betas"):
        np.testing.assert_array_equal(getattr(cert, field), getattr(report.certificate, field))
    assert report.best_residual == _objective_and_gradient(report.best_u,
                                                           _member_kernel(x, 2, 3))[0]


FULL_RANK = [sk.random_separable(m, n, m * n + 2, seed)
             for m, n in ((2, 4), (3, 3), (3, 4)) for seed in range(6)]


def test_minimize_polishes_full_rank_mixtures_into_certificates():
    """At the benchmark budget the search alone certified none of these 18
    full-rank mixtures; its near-misses, fitted in product space, certify
    all 18.  Every polished certificate holds its weights' sum to tr rho
    within 1e-10, a hundred times tighter than check_certificate's gate."""
    cfg = SearchConfig(restarts=1, max_iters=200)
    for rho in FULL_RANK:
        assert scaled_eigvecs(rho).count == rho.dim
        report = minimize(rho, cfg)
        assert report.certificate is not None and report.polish_attempts >= 1
        check_certificate(report.certificate, rho.matrix)
        assert abs(report.certificate.weights.sum() - np.trace(rho.matrix).real) <= 1e-10


def test_polished_searches_are_byte_identical():
    """Two runs of a search that ends in a polished certificate agree in
    every field, the certificate's arrays byte for byte."""
    cfg = SearchConfig(restarts=1, max_iters=200)
    for rho in (FULL_RANK[0], FULL_RANK[6], FULL_RANK[13]):
        r1, r2 = minimize(rho, cfg), minimize(rho, cfg)
        assert r1.polish_attempts >= 1 and r1.certificate is not None
        assert (r1.best_residual, r1.k, r1.restarts_used, r1.iterations_used,
                r1.rejected_extractions, r1.polish_attempts) == \
            (r2.best_residual, r2.k, r2.restarts_used, r2.iterations_used,
             r2.rejected_extractions, r2.polish_attempts)
        assert r1.best_u.tobytes() == r2.best_u.tobytes()
        for field in ("weights", "alphas", "betas"):
            assert getattr(r1.certificate, field).tobytes() == \
                getattr(r2.certificate, field).tobytes()


def test_the_polish_pause_leaves_the_descent_unchanged():
    """Draining _descend with the polish gate yields one pause and then the
    very end point, residual and count that draining it without the gate
    gives."""
    for rho in (FULL_RANK[0], FULL_RANK[6], FULL_RANK[13]):
        x = scaled_eigvecs(rho)
        kernel = _member_kernel(x, rho.m, rho.n)
        u0 = random_orthonormal_columns(x.count, x.count, 0)
        plain = list(search_module._descend(u0, kernel, 200))
        paused = list(search_module._descend(u0, kernel, 200, search_module._POLISH_GATE))
        assert len(plain) == 1 and len(paused) == 2
        assert paused[0][1] <= search_module._POLISH_GATE and paused[0][2] < paused[1][2]
        (u, f, iters), (u_p, f_p, iters_p) = plain[0], paused[1]
        assert np.array_equal(u, u_p) and f == f_p and iters == iters_p


def test_a_failed_retraction_halves_the_step(monkeypatch):
    """A retraction that raises LinAlgError counts as a rejected step: alpha
    halves from _STEP_INIT until it falls below _STEP_MIN, 47 attempts, and
    the descent ends after one iteration where it started."""
    rho = sk.random_separable(2, 3, 3, seed=1)
    x = scaled_eigvecs(rho)
    kernel = _member_kernel(x, rho.m, rho.n)
    u0 = random_orthonormal_columns(x.count, x.count, 0)
    f0 = _objective_and_gradient(u0, kernel)[0]
    attempts = []

    def singular(m):
        attempts.append(m)
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(search_module, "_retract", singular)
    ((u, f, iters),) = search_module._descend(u0, kernel, 200)
    assert u is u0 and f == f0 and iters == 1 and len(attempts) == 47


def test_full_rank_search_certifies_at_the_gate():
    """A full-rank restart is polished when its descent first reaches the
    gate, long before its budget ends, and the report gives the certified
    ensemble: best_u rebuilds the certificate's members in the eigenbasis,
    with orthonormal columns, and best_residual is F there."""
    rho = sk.random_separable(2, 4, 10, seed=1)
    x = scaled_eigvecs(rho)
    report = minimize(rho, SearchConfig(restarts=1, max_iters=200))
    assert report.certificate is not None and report.iterations_used < 200
    assert report.k == 2 * x.count == 16 and report.best_u.shape == (16, 8)
    u = report.best_u
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), rtol=0, atol=1e-10)
    assert report.best_residual == _objective_and_gradient(u, _member_kernel(x, 2, 4))[0]
    assert report.best_residual <= 1e-20
    check_certificate(certificate_from_members(u @ x.vectors, 2, 4), rho.matrix)


def test_minimize_certifies_one_factor_states():
    """A 1 x n or m x 1 state has no pairs: its eigen-ensemble (u = I) is
    returned as the certificate, without any descent."""
    for m, n in [(1, 3), (4, 1)]:
        rho = sk.random_density(m, n, seed=2)
        report = minimize(rho)
        assert (report.k, report.restarts_used, report.iterations_used) == (m * n, 0, 0)
        assert report.best_residual == 0.0 and report.rejected_extractions == 0
        np.testing.assert_array_equal(report.best_u, np.eye(m * n))
        check_certificate(report.certificate, rho.matrix)
        x = scaled_eigvecs(rho)
        assert pair_reports(x, m, n) == []
        assert emit_constraints(x, m, n).pairs == ()
        assert render_constraints(emit_constraints(x, m, n)) == ""


def test_dim_v_below_the_rank_walks_no_size_and_builds_no_tau(monkeypatch):
    """Horodecki rho_0.5 has dim V = 1 < l = 5, so no decomposition exists:
    neither a tau nor the search's kernel is built and no restart runs.
    The report stays well defined: an infinite residual and an empty
    (0, l) complex best_u."""
    def no_taus(*args):
        raise AssertionError("taus or kernel built for an empty walk")

    monkeypatch.setattr(search_module, "pair_taus", no_taus)
    monkeypatch.setattr(search_module, "_member_kernel", no_taus)
    report = minimize(sk.horodecki_2x4(0.5), SearchConfig(restarts=1, max_iters=200))
    assert (report.k, report.restarts_used, report.iterations_used,
            report.rejected_extractions, report.range_dim) == (0, 0, 0, 0, 1)
    assert report.best_residual == np.inf and report.certificate is None
    assert report.best_u.shape == (0, 5) and report.best_u.dtype == complex
