"""Tests for the product-space fit that polishes the search's near misses."""

import numpy as np
import pytest

import sepkit as sk
import sepkit.products as products_module
from sepkit.linalg import random_orthonormal_columns, scaled_eigvecs
from sepkit.products import _polish
from sepkit.search import _walk


def test_polish_gram_is_j_jt_of_the_residual():
    """_polish_gram equals J J^T of r(a, b) = sum_i (a_i x b_i)(a_i x b_i)^H
    - rho, with J taken by central differences over the real and
    imaginary parts of every a_i and b_i, in the coordinates Re Y + Im Y."""
    rng = np.random.default_rng(4)
    m, n, k = 2, 3, 3
    a = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    b = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))

    def coords(a, b):
        v = (a[:, :, None] * b[:, None, :]).reshape(k, -1)
        s = v.T @ v.conj()
        return (s.real + s.imag).ravel()

    columns = []
    for which, shape in ((0, a.shape), (1, b.shape)):
        for idx in np.ndindex(*shape):
            for unit in (1.0, 1j):
                step = [np.zeros_like(a), np.zeros_like(b)]
                step[which][idx] = 1e-6 * unit
                columns.append((coords(a + step[0], b + step[1])
                                - coords(a - step[0], b - step[1])) / 2e-6)
    jac = np.array(columns).T
    v = (a[:, :, None] * b[:, None, :]).reshape(k, -1)
    np.testing.assert_allclose(products_module._polish_gram(a, b, v, m, n), jac @ jac.T,
                               rtol=1e-6, atol=1e-6 * np.abs(jac @ jac.T).max())


def test_polish_keeps_an_exact_decomposition():
    """Members sqrt(w_i) alpha_i (x) beta_i of bound_2x4's certificate are
    already a fit at the floor: _polish returns members that certify and
    rebuild rho within 1.4e-14."""
    rho = sk.bound_2x4()
    cert = sk.classify(rho).certificate
    z = (np.sqrt(cert.weights)[:, None, None] * cert.alphas[:, :, None]
         * cert.betas[:, None, :]).reshape(len(cert.weights), -1)
    members = _polish(z, rho.matrix, rho.m, rho.n)
    assert members is not None and sk.certify(members, rho) is not None
    assert np.linalg.norm(members.T @ members.conj() - rho.matrix) <= 1.4e-14


def test_polish_gives_up_on_a_singular_step(monkeypatch):
    """bound_2x4's certificate members with 1e-4 seeded noise need at least
    one step, which _polish takes and certifies; when the damped system is
    singular to working precision, _polish returns None instead."""
    rho = sk.bound_2x4()
    cert = sk.classify(rho).certificate
    z = (np.sqrt(cert.weights)[:, None, None] * cert.alphas[:, :, None]
         * cert.betas[:, None, :]).reshape(len(cert.weights), -1)
    rng = np.random.default_rng(5)
    z = z + 1e-4 * (rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape))
    members = _polish(z, rho.matrix, rho.m, rho.n)
    assert members is not None and sk.certify(members, rho) is not None

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert _polish(z, rho.matrix, rho.m, rho.n) is None


@pytest.mark.parametrize("rho, k", [(sk.tiles(), 4), (sk.tiles(), 8),
                                    (sk.horodecki_2x4(0.5), 5), (sk.horodecki_2x4(0.5), 10)],
                         ids=["tiles_k4", "tiles_k8", "horodecki_b0.5_k5", "horodecki_b0.5_k10"])
def test_polish_never_fits_an_entangled_state(rho, k):
    """No mixture of products rebuilds a PPT-entangled state, so no fit
    reaches the floor and _polish returns None."""
    x = scaled_eigvecs(rho)
    z = random_orthonormal_columns(k, x.count, 0) @ x.vectors
    assert _polish(z, rho.matrix, rho.m, rho.n) is None


def polish_pays(k: int, l: int, m: int, n: int) -> bool:
    """Whether the search's walk fits its restarts at size k on a rank-l
    m x n state, with dim V = l^2 so that every size up to l^2 is walked
    unless the walk leaves it out."""
    return any(fitted for size, _, fitted, _ in _walk(l, l * l, l * l, m, n, 1) if size == k)


@pytest.mark.parametrize("k, l, m, n, pays", [
    (6, 6, 2, 3, True),      # k = l at full rank: 2l(m + n - 1) > l^2
    (9, 9, 3, 3, True),
    (5, 5, 2, 4, True),      # k = l below full rank
    (12, 12, 3, 4, False),   # 2l(m + n - 1) = l^2
    (16, 16, 4, 4, False),   # 2l(m + n - 1) < l^2
    (12, 6, 2, 3, True),     # k = 2l at full rank
    (24, 12, 3, 4, True),
    (10, 5, 2, 4, False),    # k = 2l below full rank
    (24, 6, 2, 3, False),    # k = 4l
    (18, 9, 2, 5, False),
])
def test_polish_pays_truth_table(k, l, m, n, pays):
    assert polish_pays(k, l, m, n) is pays


def test_nothing_pays_above_the_size_cap():
    """Above mn = 20 no size of any rank is fitted; at or below it, k = 2l
    is fitted exactly at full rank, and a restart is paused exactly where
    it is fitted at full rank."""
    for m, n in ((3, 7), (4, 6), (5, 5), (8, 8)):
        for l in range(1, m * n + 1):
            assert not any(fitted for _, _, fitted, _ in _walk(l, l * l, l * l, m, n, 1))
    for m, n in ((2, 2), (2, 3), (3, 3), (2, 5), (4, 4), (4, 5)):
        for l in range(1, m * n + 1):
            assert polish_pays(2 * l, l, m, n) is (l == m * n)
            for _, _, fitted, paused in _walk(l, l * l, l * l, m, n, 1):
                assert paused is (fitted and l == m * n)
