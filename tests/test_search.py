"""Tests for the joint residual, its gradient, and the ensemble search."""

import dataclasses

import numpy as np
import pytest

import sepkit as sk
import sepkit.search as search_module
from sepkit.criterion import pair_reports, scaled_eigvecs, tau_matrix
from sepkit.decompose import MemberCountError
from sepkit.linalg import random_orthonormal_columns, reorthonormalize
from sepkit.pairs import pair_operators, pair_residual
from sepkit.search import (
    CertificateError,
    _retract,
    _tangent_project,
    SearchConfig,
    certificate_from_members,
    certify,
    check_certificate,
    emit_constraints,
    evaluate_constraints,
    extract_certificate,
    joint_residual,
    minimize,
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
    return x, np.stack([tau_matrix(x, b) for b in pair_operators(rho.m, rho.n)])


def test_joint_residual_at_identity_on_reference_basis():
    """With u = I the members are the basis vectors themselves; only the
    first pair has nonzero diagonal tau entries, a single -1/4."""
    _, taus = _taus(sk.bound_2x4(), sk.bound_2x4_basis())
    assert joint_residual(np.eye(5), taus) == pytest.approx(1 / 16, abs=1e-15)


def test_joint_residual_matches_member_residuals():
    """F(u) is the summed squared pair residuals of the members
    z_i = sum_j u_ij x_j, for any orthonormal u, and its gradient is
    4 sum_r conj(d_r) conj(u) tau_r over the same residuals d_r, pair by pair."""
    for m, n, seed in [(2, 2, 0), (2, 3, 1), (3, 3, 2)]:
        rho = sk.random_density(m, n, seed=seed)
        x, taus = _taus(rho)
        ops = pair_operators(m, n)
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
    assert report.k == 6
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
    """On the maximally entangled state the best the search can do is
    spread the one eigenvector over k members, diluting the residual to
    1/k.  Bell has rank l = 1, so the schedule stops at k = l^2 = 1 and
    the residual is the undiluted 1/1.  No certificate can appear."""
    report = minimize(sk.bell(), SearchConfig(restarts=3))
    assert report.certificate is None
    assert report.k == 1
    assert report.best_residual == pytest.approx(1 / 1, rel=1e-10)


def test_minimize_is_deterministic():
    cfg = SearchConfig(restarts=5, seed=11)
    rho = sk.random_separable(2, 2, terms=4, seed=6)
    r1 = minimize(rho, cfg)
    r2 = minimize(rho, cfg)
    assert r1.best_residual == r2.best_residual
    assert r1.restarts_used == r2.restarts_used
    assert r1.iterations_used == r2.iterations_used
    np.testing.assert_array_equal(r1.best_u, r2.best_u)


def test_minimize_rejects_k_below_rank():
    with pytest.raises(MemberCountError, match="below the rank"):
        minimize(sk.werner_2x2(0.2), SearchConfig(k=2))
    with pytest.raises(MemberCountError, match="k = 4 is below the rank l = 5"):
        minimize(sk.horodecki_2x4(0.5), SearchConfig(k=4))


def walked_schedules(monkeypatch, rho, config):
    """The k schedules minimize asks _k_schedule for, and minimize's report."""
    seen, real = [], search_module._k_schedule

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(search_module, "_k_schedule", spy)
    return seen, minimize(rho, config)


@pytest.mark.parametrize("rho, schedule", [
    (sk.bell(), [1]),                                    # l = 1
    (sk.tiles(), [4, 8, 16]),                            # l = 4 in 3x3
    (sk.horodecki_2x4(0.5), [5, 10, 20, 25]),            # l = 5 in 2x4
    (sk.random_separable(2, 3, terms=8, seed=0), [6, 12, 24, 36]),  # full rank
])
def test_schedule_doubles_from_the_rank_up_to_its_square(monkeypatch, rho, schedule):
    """A rank-l separable state mixes at most l^2 products, so the walk stops there."""
    seen, _ = walked_schedules(monkeypatch, rho, SearchConfig(restarts=1, max_iters=1))
    assert seen == [schedule]


def test_explicit_k_above_the_rank_squared_is_clipped(monkeypatch):
    rho = sk.random_separable(2, 3, terms=2, seed=0)  # rank 2, so the cap is 4
    seen, report = walked_schedules(monkeypatch, rho,
                                    SearchConfig(k=30, restarts=1, max_iters=5))
    assert seen == [[4]]
    assert report.k == 4


@pytest.mark.parametrize("rho, restarts, iterations, k_max", [
    (sk.horodecki_2x4(0.5), 4, 800, 25),
    (sk.tiles(), 3, 600, 16),
])
def test_capped_schedule_bounds_the_work_on_ppt_entangled_states(rho, restarts, iterations,
                                                                  k_max):
    """At restarts=1, max_iters=200 every size spends the whole budget."""
    report = minimize(rho, SearchConfig(restarts=1, max_iters=200))
    assert report.certificate is None
    assert (report.restarts_used, report.iterations_used) == (restarts, iterations)
    assert report.k <= k_max


@pytest.mark.parametrize("budget", [{"restarts": 0}, {"max_iters": 0}, {"restarts": -1}])
def test_minimize_rejects_an_empty_budget(budget):
    with pytest.raises(ValueError, match="must be >= 1"):
        minimize(sk.werner_2x2(0.2), SearchConfig(**budget))


def test_search_config_holds_only_the_budget():
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "k", "restarts", "max_iters", "seed"]
    assert [f.name for f in dataclasses.fields(sk.ClassifyConfig)] == ["search"]


def test_certify_returns_checked_certificates_only():
    """certify is the one gate: product members that rebuild rho give a
    certificate that passes check_certificate; anything else gives None."""
    rho = sk.bound_2x4()
    cert = minimize(rho, SearchConfig(restarts=5)).certificate
    members = np.sqrt(cert.weights)[:, None] * np.einsum("ia,ib->iab", cert.alphas,
                                                        cert.betas).reshape(5, 8)
    again = certify(members, rho)
    check_certificate(again, rho.matrix)
    np.testing.assert_allclose(again.density(), rho.matrix, atol=1e-12)
    assert certify(members[:4], rho) is None  # products, but not all of rho
    assert certify(scaled_eigvecs(rho, basis_override=sk.bound_2x4_basis()).vectors,
                   rho) is None  # rebuild rho, but not all products
    x = scaled_eigvecs(rho)
    u = minimize(rho, SearchConfig(k=5, restarts=5)).best_u
    np.testing.assert_array_equal(certify(u, rho, x).weights,
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


def test_certificate_from_members_reports_offender():
    good = np.kron([1.0, 0.0], [1.0, 0.0]).astype(complex)
    bad = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    members = np.vstack([good / np.sqrt(2), bad / np.sqrt(2)])
    with pytest.raises(CertificateError) as info:
        certificate_from_members(members, 2, 2)
    assert info.value.member_index == 1


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


def test_evaluate_constraints_equals_member_residuals():
    for rho in (sk.bound_2x4(), sk.random_density(2, 3, seed=13)):
        x = scaled_eigvecs(rho)
        cs = emit_constraints(x, rho.m, rho.n)
        ops = pair_operators(rho.m, rho.n)
        for k in (x.count, x.count + 1):
            u = random_orthonormal_columns(k, x.count, seed=3)
            members = u @ x.vectors
            values = evaluate_constraints(cs, u)
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


def test_minimize_counts_rejected_extractions():
    """At k = 12 this 2x3 mixture reaches F ~ 1e-27 on members whose
    anchored minors vanish without being products: both restarts reach
    tol_residual and both extractions are rejected."""
    rho = sk.random_separable(2, 3, terms=6, seed=1)
    report = minimize(rho, SearchConfig(k=12, restarts=2))
    assert report.certificate is None
    assert report.rejected_extractions == report.restarts_used == 2
    assert report.best_residual <= 1e-10
    with pytest.raises(CertificateError):
        extract_certificate(report.best_u, scaled_eigvecs(rho), 2, 3)
    assert minimize(sk.werner_2x2(0.2), SearchConfig()).rejected_extractions == 0


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
