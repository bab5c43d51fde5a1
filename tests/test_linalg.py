"""Tests for the dense linear algebra helpers."""

import numpy as np
import pytest

import sepkit as sk
from sepkit.linalg import (
    RankDeficientError,
    _fix_column_phases,
    hermitian_eig,
    product_svd,
    random_orthonormal_columns,
    reorthonormalize,
    singular_values,
    takagi,
)


def _random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def _random_symmetric(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.T) / 2


def test_hermitian_eig_reconstructs_and_sorts():
    """Eigenvalues come out descending and V diag(w) V^dag reassembles H."""
    for seed in range(8):
        h = _random_hermitian(5, seed)
        eig = hermitian_eig(h)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
        np.testing.assert_allclose(recon, h, atol=1e-12)
        np.testing.assert_allclose(
            eig.eigenvectors.conj().T @ eig.eigenvectors, np.eye(5), atol=1e-12)


def test_hermitian_eig_fixes_column_phases():
    """The largest entry of each eigenvector is made real positive, so the
    output is reproducible across equivalent inputs."""
    h = _random_hermitian(4, 11)
    v = hermitian_eig(h).eigenvectors
    for col in v.T:
        lead = col[np.argmax(np.abs(col))]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0


def per_column_phases(v):
    """The per-column reference: the pivot's conj(p) / abs(p), column by column."""
    v = v.copy()
    for i in range(v.shape[1]):
        pivot = v[int(np.argmax(np.abs(v[:, i]))), i]
        if abs(pivot) > 0:
            v[:, i] *= np.conj(pivot) / abs(pivot)
    return v


def test_column_phases_match_the_per_column_loop_bit_for_bit():
    """Signed zeros included: exact-zero entries (block and permuted
    eigenvectors) and a zero column come out with the loop's bytes."""
    werner = np.diag([0.3, 0.2, 0.2, 0.3]).astype(complex)
    werner[1, 2] = werner[2, 1] = -0.1
    cases = [np.linalg.eigh(_random_hermitian(d, d))[1] for d in (2, 5, 8)]
    cases += [np.linalg.eigh(werner)[1], np.eye(3)[:, ::-1] * 1j,
              np.array([[0.0, 1j, -0.5], [0.0, 0.5, 2.0 - 1j]])]
    for v in cases:
        v = v[:, ::-1]
        assert _fix_column_phases(v).tobytes() == per_column_phases(v).tobytes()


def test_hermitian_eig_rejects_non_hermitian():
    """Also input that is not a nonempty, finite, square matrix, each with its message."""
    for h, message in ((np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
                       (np.ones((2, 3)), r"h must be square, got shape \(2, 3\)"),
                       (np.zeros((0, 0)), r"h must be a nonempty 2-d array, got shape \(0, 0\)"),
                       (np.ones(4), r"h must be a nonempty 2-d array, got shape \(4,\)"),
                       (np.full((2, 2), np.nan), "h contains non-finite entries")):
        with pytest.raises(ValueError, match=message):
            hermitian_eig(h)


def test_singular_values_match_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    np.testing.assert_allclose(singular_values(a), np.linalg.svd(a, compute_uv=False),
                               atol=1e-12)


@pytest.mark.parametrize("m, n", [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3),
                                  (3, 4), (4, 4)])
def test_product_svd_is_the_per_member_svd(m, n):
    """The batched SVD equals one SVD per member bit for bit, zero members included;
    with a one-dimensional factor the lone singular value gets an exact zero second."""
    rng = np.random.default_rng(m * 10 + n)
    z = rng.normal(size=(7, m * n)) + 1j * rng.normal(size=(7, m * n))
    z[2] = 0.0
    z[4] = np.kron(z[4, :m], z[4, :n])
    alphas, s, betas = product_svd(z, m, n)
    assert s.shape == (7, max(min(m, n), 2))
    for i, row in enumerate(z):
        u_i, s_i, vh_i = np.linalg.svd(row.reshape(m, n))
        np.testing.assert_array_equal(alphas[i], u_i[:, 0])
        np.testing.assert_array_equal(s[i, :len(s_i)], s_i)
        np.testing.assert_array_equal(betas[i], vh_i[0, :])
    if min(m, n) == 1:
        assert np.all(s[:, 1] == 0.0)


def test_takagi_factorizes_random_symmetric():
    """v is unitary and v s v^T is the diagonal of singular values, descending."""
    for d in range(1, 7):
        for seed in range(4):
            s = _random_symmetric(d, 100 * d + seed)
            res = takagi(s)
            np.testing.assert_allclose(res.v.conj().T @ res.v, np.eye(d), atol=1e-11)
            np.testing.assert_allclose(res.v @ s @ res.v.T, np.diag(res.lambdas),
                                       atol=1e-11)
            np.testing.assert_allclose(res.lambdas, singular_values(s), atol=1e-11)


def test_takagi_handles_rank_deficiency_and_zero():
    res = takagi(np.diag([1.0, 0.0, 0.0]).astype(complex))
    np.testing.assert_allclose(res.lambdas, [1.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(res.v.conj().T @ res.v, np.eye(3), atol=1e-12)

    res = takagi(np.zeros((4, 4), dtype=complex))
    np.testing.assert_allclose(res.lambdas, np.zeros(4), atol=0)
    np.testing.assert_allclose(res.v.conj().T @ res.v, np.eye(4), atol=1e-12)

    # s = U diag(sigma) U^T with U random unitary, so the zero space is not
    # a coordinate subspace; sigma has exact zeros, repeated values or both.
    rng = np.random.default_rng(14)
    for l in range(5, 13):
        for _ in range(3):
            g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
            u = np.linalg.qr(g)[0]
            zeros = int(rng.integers(1, l))
            spread = rng.uniform(0.1, 1.0, l - zeros)
            for sigma in (np.r_[spread, np.zeros(zeros)],
                          np.r_[np.full(l - zeros, 0.7), np.zeros(zeros)],
                          np.r_[np.full(zeros, 0.3), spread]):
                s = u @ np.diag(sigma) @ u.T
                res = takagi(s)
                assert np.linalg.norm(res.v @ res.v.conj().T - np.eye(l)) <= 1e-11
                err = np.linalg.norm(res.v @ s @ res.v.T - np.diag(res.lambdas))
                assert err <= 1e-11 * (1.0 + np.linalg.norm(s))
                np.testing.assert_allclose(res.lambdas, np.sort(sigma)[::-1], atol=1e-12)

    # Two singular values within 0.67-1.5x of the zero threshold next to an
    # exact zero: the embedding mixes their modes, and v must stay unitary.
    rng = np.random.default_rng(15)
    for _ in range(300):
        l = int(rng.integers(5, 9))
        g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        u = np.linalg.qr(g)[0]
        spread = rng.uniform(0.1, 1.0, l - 3)
        threshold = 1e3 * np.finfo(float).eps * (1.0 + np.linalg.norm(spread))
        s = u @ np.diag(np.r_[spread, rng.uniform(0.67, 1.5, 2) * threshold, 0.0]) @ u.T
        res = takagi(s)
        assert np.linalg.norm(res.v @ res.v.conj().T - np.eye(l)) <= 1e-11
        err = np.linalg.norm(res.v @ s @ res.v.T - np.diag(res.lambdas))
        assert err <= 1e-11 * (1.0 + np.linalg.norm(s))


def test_takagi_lambdas_are_the_embeddings_positive_eigenvalues():
    """A positive mode u of the real embedding has s conj(u) = mu u, so the
    lambdas are the embedding's positive eigenvalues as they stand,
    descending, then exact zeros: on rank-deficient inputs and on the
    degenerate taus of Werner states (0.4, 0.2, 0.2, 0.2 at p = 0.2)."""
    rng = np.random.default_rng(16)
    cases = []
    for l, rank in [(4, 0), (4, 1), (4, 2), (4, 3), (4, 4), (6, 3)]:
        g = rng.standard_normal((l, rank)) + 1j * rng.standard_normal((l, rank))
        cases.append(g @ g.T)
    b = sk.build_pair_operator(2, 2, sk.PairIndex(2, 2))
    for p in (0.0, 0.2, 0.5, 1.0):
        cases.append(sk.tau_matrix(sk.scaled_eigvecs(sk.werner_2x2(p)), b))
    cases.append(np.diag([0.3, 0.3, 0.0, 0.0]).astype(complex))
    for s in cases:
        mu = np.linalg.eigvalsh(np.block([[s.real, s.imag], [s.imag, -s.real]]))[::-1]
        npos = int(np.count_nonzero(mu > 1e-10))
        res = takagi(s)
        # eigvalsh and eigh agree to rounding relative to the norm.
        np.testing.assert_allclose(res.lambdas[:npos], mu[:npos], rtol=0,
                                   atol=1e-14 * (1.0 + np.linalg.norm(s)))
        assert np.all(res.lambdas[npos:] == 0.0)
        assert np.all(np.diff(res.lambdas) <= 0.0)
        np.testing.assert_allclose(res.v @ s @ res.v.T, np.diag(res.lambdas), atol=1e-12)
        np.testing.assert_allclose(res.v @ res.v.conj().T, np.eye(len(s)), atol=1e-12)


def test_takagi_degenerate_spectrum():
    """Repeated singular values still give a valid factorization.

    The identity is the canonical hard case: every unitary diagonalizes it,
    but only special ones satisfy the symmetric (transpose, not dagger)
    congruence."""
    for s in (np.eye(4, dtype=complex), 1j * np.eye(3)):
        res = takagi(s)
        np.testing.assert_allclose(res.v @ s @ res.v.T, np.diag(res.lambdas),
                                   atol=1e-12)
        assert np.all(res.lambdas >= 0)


def test_takagi_rejects_non_symmetric():
    with pytest.raises(ValueError, match="not complex symmetric"):
        takagi(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"s must be square, got shape \(2, 3\)"):
        takagi(np.ones((2, 3)))
    with pytest.raises(ValueError, match="s contains non-finite entries"):
        takagi(np.full((2, 2), np.inf))


def test_reorthonormalize_is_projection():
    """Orthonormal input passes through; a small perturbation is repaired."""
    rng = np.random.default_rng(7)
    u = random_orthonormal_columns(5, 3, seed=1)
    np.testing.assert_allclose(reorthonormalize(u), u, atol=1e-12)

    noisy = u + 1e-3 * (rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape))
    fixed = reorthonormalize(noisy)
    np.testing.assert_allclose(fixed.conj().T @ fixed, np.eye(3), atol=1e-12)
    assert np.linalg.norm(fixed - u) < 1e-2


def test_reorthonormalize_rejects_rank_deficient():
    m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(RankDeficientError):
        reorthonormalize(m)


def test_reorthonormalize_rejects_wide_matrices():
    """random_orthonormal_columns refuses to draw a wide matrix too, or one with no column."""
    with pytest.raises(ValueError):
        reorthonormalize(np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError, match="need k >= l >= 1, got k=2, l=3"):
        random_orthonormal_columns(2, 3, 0)
    with pytest.raises(ValueError, match="need k >= l >= 1, got k=3, l=0"):
        random_orthonormal_columns(3, 0, 0)


def test_random_orthonormal_columns_seeded():
    u1 = random_orthonormal_columns(6, 4, seed=9)
    u2 = random_orthonormal_columns(6, 4, seed=9)
    u3 = random_orthonormal_columns(6, 4, seed=10)
    np.testing.assert_array_equal(u1, u2)
    assert np.linalg.norm(u1 - u3) > 1e-3
    np.testing.assert_allclose(u1.conj().T @ u1, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("args, name", [((3, 2, 1.5), "seed"), ((3.0, 2, 1), "k"),
                                        ((3, 2.0, 1), "l")])
def test_random_orthonormal_columns_rejects_non_integers(args, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        random_orthonormal_columns(*args)


def test_random_orthonormal_columns_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        random_orthonormal_columns(3, 2, -1)
