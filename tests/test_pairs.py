"""Tests for the sparse pair operators and their bilinear residuals."""

import numpy as np
import pytest

from sepkit.pairs import (
    PairIndex,
    _pair_layout,
    basis_index,
    build_pair_operator,
    enumerate_pairs,
    pair_operators,
    pair_residual,
    tilde,
)
from sepkit.states import bell

# Dense form of the single 2x2 operator, written out by hand from the
# definition: -1 couples |11> with |pq>, +1 couples |1q> with |p1>.
B_2X2 = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)

# Nonzero positions (1-based, upper triangle) of the three 2x4 operators.
NONZEROS_2X4 = {
    (2, 2): {(1, 6): -1.0, (2, 5): 1.0},
    (2, 3): {(1, 7): -1.0, (3, 5): 1.0},
    (2, 4): {(1, 8): -1.0, (4, 5): 1.0},
}


def _random_state_vector(d, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_basis_index_is_row_major():
    assert basis_index(4, 1, 1) == 1
    assert basis_index(4, 1, 4) == 4
    assert basis_index(4, 2, 1) == 5
    assert basis_index(4, 2, 3) == 7


def test_enumerate_pairs_order():
    """Pairs run over q first, then p, both ascending from 2."""
    assert enumerate_pairs(2, 2) == [PairIndex(2, 2)]
    assert enumerate_pairs(2, 4) == [PairIndex(2, 2), PairIndex(2, 3), PairIndex(2, 4)]
    assert enumerate_pairs(3, 3) == [
        PairIndex(2, 2), PairIndex(3, 2), PairIndex(2, 3), PairIndex(3, 3)]
    assert len(enumerate_pairs(4, 4)) == 9


def test_enumerate_pairs_rejects_trivial_factors():
    """A one-dimensional factor has no minors; dims below 1 are not a system."""
    assert enumerate_pairs(1, 3) == [] and enumerate_pairs(3, 1) == []
    assert pair_operators(1, 3) == []
    for m, n in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            enumerate_pairs(m, n)


def test_build_pair_operator_rejects_out_of_range():
    """Also a non-integer index, whose float entries numpy cannot index
    with, and an operator applied to a state of the wrong length."""
    with pytest.raises(ValueError, match=r"pair \(3, 2\) out of range for dims \(2, 2\)"):
        build_pair_operator(2, 2, PairIndex(3, 2))
    for pair, message in ((PairIndex(2.0, 2), "p must be an integer, got 2.0"),
                          (PairIndex(2, 2.5), "q must be an integer, got 2.5"),
                          (PairIndex(True, 2), "p must be an integer, got True")):
        with pytest.raises(ValueError, match=message):
            build_pair_operator(2, 2, pair)
    b = build_pair_operator(2, 2, PairIndex(2, 2))
    for op in (tilde, pair_residual):
        with pytest.raises(ValueError, match="state has length 3, expected 4"):
            op(b, np.ones(3))


def test_pair_operator_2x2_dense():
    b = build_pair_operator(2, 2, PairIndex(2, 2))
    np.testing.assert_array_equal(b.dense(), B_2X2)


def test_pair_operators_2x4_nonzeros():
    """Each operator has exactly four nonzero entries at the expected slots."""
    for b in pair_operators(2, 4):
        dense = b.dense()
        expected = np.zeros((8, 8), dtype=complex)
        for (i, j), val in NONZEROS_2X4[(b.pair.p, b.pair.q)].items():
            expected[i - 1, j - 1] = val
            expected[j - 1, i - 1] = val
        np.testing.assert_array_equal(dense, expected)
        assert np.count_nonzero(dense) == 4


def test_pair_operators_are_symmetric_sign_matrices():
    for m, n in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        for b in pair_operators(m, n):
            dense = b.dense()
            np.testing.assert_array_equal(dense, dense.T)
            values = dense[dense != 0]
            assert sorted(values.real.tolist()) == [-1.0, -1.0, 1.0, 1.0]


def test_tilde_is_conjugated_action():
    """tilde(b, psi) equals B conj(psi) entrywise."""
    b = build_pair_operator(2, 2, PairIndex(2, 2))
    e1 = np.eye(4, dtype=complex)[0]
    np.testing.assert_array_equal(tilde(b, e1), B_2X2 @ e1)
    for seed in range(5):
        psi = _random_state_vector(4, seed)
        np.testing.assert_allclose(tilde(b, psi), B_2X2 @ psi.conj(), atol=1e-14)


def test_pair_residual_of_bell_state():
    """The maximally entangled 2x2 state sits at the extreme residual -1."""
    b = build_pair_operator(2, 2, PairIndex(2, 2))
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert pair_residual(b, psi) == pytest.approx(-1.0, abs=1e-14)
    # the density-matrix zoo builds the same vector
    w, vecs = np.linalg.eigh(bell().matrix)
    psi_zoo = vecs[:, np.argmax(w)]
    assert abs(pair_residual(b, psi_zoo)) == pytest.approx(1.0, abs=1e-12)


def test_pair_residual_equals_two_by_two_minor():
    """The residual is twice the (1,1)-(p,q) minor of the conjugated
    coefficient matrix, which is what makes it a product-state detector."""
    for m, n in [(2, 2), (2, 4), (3, 3)]:
        for seed in range(6):
            psi = _random_state_vector(m * n, seed)
            a = psi.conj().reshape(m, n)
            for b in pair_operators(m, n):
                p, q = b.pair.p, b.pair.q
                minor = 2 * (a[0, q - 1] * a[p - 1, 0] - a[0, 0] * a[p - 1, q - 1])
                assert pair_residual(b, psi) == pytest.approx(minor, abs=1e-13)


def test_pair_residuals_vanish_on_product_vectors():
    for m, n in [(2, 2), (2, 4), (3, 3), (4, 3)]:
        for seed in range(4):
            alpha = _random_state_vector(m, 2 * seed)
            beta = _random_state_vector(n, 2 * seed + 1)
            psi = np.kron(alpha, beta)
            for b in pair_operators(m, n):
                assert abs(pair_residual(b, psi)) < 1e-14


def test_zero_anchor_vector_also_annihilates_all_pairs():
    """A vector whose coefficient matrix has a zero first column kills every
    residual without being a product vector.  Zero residuals alone are
    therefore not proof of product form."""
    a = np.array([[0, 1, 0], [0, 0, 1]], dtype=complex) / np.sqrt(2)
    psi = a.reshape(-1)
    for b in pair_operators(2, 3):
        assert abs(pair_residual(b, psi)) < 1e-15
    assert np.linalg.matrix_rank(a) == 2


def test_pair_layout_is_built_once_and_read_only():
    """The operators' pairs, entry rows, columns and values, and the sign
    blocks derived from them, depend only on (m, n): one read-only copy
    per shape, which pair_reports and the search both read."""
    layout = _pair_layout(3, 4)
    assert _pair_layout(3, 4) is layout
    assert list(layout.pairs) == enumerate_pairs(3, 4)
    ops = pair_operators(3, 4)
    for r, b in enumerate(ops):
        entries = zip(layout.rows[r] + 1, layout.cols[r] + 1, layout.vals[r])
        assert tuple(entries) == b.entries
    assert layout.sign.shape == (6, 4, 4)
    for arr in (layout.rows, layout.cols, layout.vals, layout.sign):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0
    assert _pair_layout(1, 3).pairs == () and _pair_layout(1, 3).rows.shape == (0, 4)
