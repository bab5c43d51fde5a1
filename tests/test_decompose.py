"""Tests for the canonical basis, polygon phases, annihilating ensembles,
the range route and the 2 x 3 subtraction route."""

import re
import tracemalloc

import numpy as np
import pytest

import sepkit as sk
import sepkit.decompose as decompose_module
from sepkit.decompose import (
    PairCriterionError,
    PolygonInfeasibleError,
    a_value,
    close_polygon,
    ppt_subtraction_decomposition,
    range_decomposition,
    range_space,
    sign_matrix,
    single_pair_decomposition,
    verify_ensemble,
)
from sepkit.linalg import random_orthonormal_columns, scaled_eigvecs, takagi
from sepkit.pairs import PairIndex, pair_operators, pair_residual, tau_matrix
from sepkit.search import certify
from sepkit.states import partial_transpose

SIGN_4 = np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
])

SIGN_8 = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, -1, -1, -1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1],
    [1, 1, -1, -1, -1, -1, 1, 1],
    [1, -1, 1, -1, 1, -1, 1, -1],
    [1, -1, 1, -1, -1, 1, -1, 1],
    [1, -1, -1, 1, 1, -1, -1, 1],
    [1, -1, -1, 1, -1, 1, 1, -1],
])


def test_canonical_basis_diagonalizes_the_pair_form():
    """The canonical basis y = conj(v) x, v the Takagi factor of tau, keeps
    sum |y_i><y_i| = rho while <y_i|B|conj(y_j)> becomes diag(lambda), the
    singular values of tau."""
    for m, n, rank, seed in [(2, 3, 4, 8), (2, 2, 3, 1), (3, 3, 5, 2)]:
        rho = sk.random_density(m, n, rank=rank, seed=seed)
        x = scaled_eigvecs(rho)
        for b in pair_operators(m, n):
            t = takagi(tau_matrix(x, b))
            y = t.v.conj() @ x.vectors
            form = y.conj() @ b.dense() @ y.conj().T
            np.testing.assert_allclose(form, np.diag(t.lambdas), atol=1e-12)
            recon = np.einsum("ia,ib->ab", y, y.conj())
            np.testing.assert_allclose(recon, rho.matrix, atol=1e-12)
            assert np.all(np.diff(t.lambdas) <= 1e-12)
            assert np.all(t.lambdas >= 0)


def test_close_polygon_small_cases():
    np.testing.assert_allclose(close_polygon(np.array([1.0, 1.0])), [0.0, np.pi],
                               atol=1e-15)
    np.testing.assert_allclose(close_polygon(np.array([0.5, 0.3, 0.2])),
                               [0.0, np.pi, np.pi], atol=1e-15)
    np.testing.assert_allclose(close_polygon(np.array([1.0, 1.0, 1.0])),
                               [0.0, 4 * np.pi / 3, 2 * np.pi / 3], atol=1e-12)
    np.testing.assert_allclose(close_polygon(np.array([0.0])), [0.0], atol=0)


def test_close_polygon_zero_lengths_get_zero_phase():
    phases = close_polygon(np.array([1.0, 1.0, 0.0, 0.0]))
    np.testing.assert_allclose(phases, [0.0, np.pi, 0.0, 0.0], atol=1e-15)


def test_close_polygon_closes_random_feasible_sets():
    """Random length sets, including needle-shaped ones with tiny tails,
    close to machine precision relative to the total length, and so do
    fixed sets at scales where the triangle's products once overflowed
    (NaN phases) or underflowed (a third of the total left open), and sets
    near the float maximum, whose sum once overflowed (OverflowError)."""
    rng = np.random.default_rng(77)
    for trial in range(300):
        size = rng.integers(1, 9)
        lengths = rng.uniform(0.0, 1.0, size=size)
        if trial % 3 == 0 and size > 2:
            lengths[2:] *= 1e-12
        top = lengths.max()
        rest = lengths.sum() - top
        if top > rest:
            lengths = np.full(size, top) if size >= 2 else np.zeros(1)
        phases = close_polygon(lengths)
        closure = abs(np.sum(lengths * np.exp(1j * phases)))
        assert closure <= 1e-12 * max(lengths.sum(), 1e-300)
        assert np.all((phases >= 0) & (phases < 2 * np.pi))
    for scale in (1e-300, 1e-170, 1e170, 1e300):
        for base in ([1.0, 1.0, 1.0], [5.0, 4.0, 3.0], [2.0, 1.0, 1.0, 0.3, 0.2]):
            lengths = np.array(base) * scale
            closure = abs(np.sum(lengths * np.exp(1j * close_polygon(lengths))))
            assert closure <= 1e-12 * lengths.sum()
    for lengths in ([1e308] * 3, [8.9e307] * 4, [1e308, 1e308]):
        unit = np.array(lengths) / max(lengths)  # the closure, summed without overflow
        assert abs(np.sum(unit * np.exp(1j * close_polygon(lengths)))) <= 1e-12 * unit.sum()


def test_close_polygon_closes_thousands_of_lengths():
    """One loop, not one call per length: a full-rank 32 x 32 state has 1024."""
    lengths = np.ones(2000)
    phases = close_polygon(lengths)
    assert abs(np.sum(lengths * np.exp(1j * phases))) <= 1e-12 * lengths.sum()


def test_close_polygon_rejects_infeasible_lengths():
    with pytest.raises(PolygonInfeasibleError, match="exceeds the sum"):
        close_polygon(np.array([1.0, 0.5, 0.4]))
    with pytest.raises(PolygonInfeasibleError):
        close_polygon(np.array([0.3]))
    for lengths in (np.array([]), np.ones((2, 2))):
        with pytest.raises(ValueError, match="lengths must be a nonempty 1-d array"):
            close_polygon(lengths)
    for bad in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="lengths must be finite and nonnegative"):
            close_polygon(np.array([1.0, 1.0, bad]))


def test_close_polygon_boundary_degenerate_triangle():
    lengths = np.array([1.0, 0.6, 0.4])
    phases = close_polygon(lengths)
    assert abs(np.sum(lengths * np.exp(1j * phases))) <= 1e-14


def test_sign_matrix_golden():
    np.testing.assert_array_equal(sign_matrix(1, 4), SIGN_4)
    np.testing.assert_array_equal(sign_matrix(2, 8), SIGN_8)
    np.testing.assert_array_equal(sign_matrix(2, 5), SIGN_8[:, :5])


def test_sign_matrix_columns_orthogonal():
    for k, l in [(1, 2), (1, 4), (2, 5), (2, 8), (4, 11)]:
        s = sign_matrix(k, l)
        assert s.shape == (4 * k, l)
        np.testing.assert_array_equal(s.T @ s, 4 * k * np.eye(l))
        np.testing.assert_array_equal(s[:, 0], np.ones(4 * k))


def test_sign_matrix_is_built_once_and_read_only():
    s = sign_matrix(2, 5)
    assert sign_matrix(2, 5) is s
    with pytest.raises(ValueError, match="read-only"):
        s[0, 0] = -1


def test_sign_matrix_builds_only_the_columns_it_keeps():
    """4k = 1024 rows and l = 2 columns: no 1024 x 1024 matrix on the way."""
    tracemalloc.start()
    try:
        s = sign_matrix.__wrapped__(256, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.shape == (1024, 2)
    assert peak < 2**20


def test_sign_matrix_rejects_bad_sizes():
    with pytest.raises(ValueError, match="power of two"):
        sign_matrix(3, 5)
    with pytest.raises(ValueError, match="l <= 4k"):
        sign_matrix(1, 5)
    sign_matrix(1, 2)  # 1.0 == 1 and hashes alike: a typed cache keeps (1, 2) from answering (1.0, 2)
    with pytest.raises(ValueError, match="k must be an integer, got 1.0"):
        sign_matrix(1.0, 2)
    with pytest.raises(ValueError, match="l must be an integer, got 2.0"):
        sign_matrix(1, 2.0)


def test_single_pair_decomposition_of_bound_state():
    """Eight members reassemble the state exactly and each one annihilates
    the boundary pair (the other two pairs stay active, so the full report
    is not expected to pass)."""
    rho = sk.bound_2x4()
    ens = single_pair_decomposition(rho, PairIndex(2, 2))
    assert ens.shape == (8, 8)
    ops = pair_operators(2, 4)
    report = verify_ensemble(ens, rho)
    assert report.reconstruction_error <= 1e-12
    for member in ens:
        assert abs(pair_residual(ops[0], member)) <= 1e-12
    assert report.max_pair_residual > 1e-3  # pairs 2 and 3 are not annihilated


def test_single_pair_decomposition_random_states():
    """Any pair with a <= 0 admits an annihilating ensemble of 4k members,
    k the least power of two with 4k >= max(4, l)."""
    count = 0
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        for seed in range(8):
            rho = sk.random_density(m, n, seed=30_000 + seed)
            x = scaled_eigvecs(rho)
            for b in pair_operators(m, n):
                lam = takagi(tau_matrix(x, b)).lambdas
                if a_value(lam) > 0:
                    continue
                ens = single_pair_decomposition(rho, b.pair)
                assert ens.shape[0] == max(4, 1 << (x.count - 1).bit_length())
                recon = np.einsum("ia,ib->ab", ens, ens.conj())
                np.testing.assert_allclose(recon, rho.matrix, atol=1e-11)
                worst = max(abs(pair_residual(b, z)) for z in ens)
                assert worst <= 1e-11
                count += 1
    assert count > 20


def test_single_pair_decomposition_needs_nonpositive_a():
    with pytest.raises(PairCriterionError, match="no annihilating ensemble"):
        single_pair_decomposition(sk.bell(), PairIndex(2, 2))


def test_single_pair_decomposition_closes_pairs_its_a_check_admits():
    """A Werner state just past p = 1/3 has 0 < a <= BOUNDARY_TOL on its one
    pair.  The route trims lambda_1 to close the polygon, so classify
    certifies it without the search; past BOUNDARY_TOL the pair still
    proves entanglement."""
    cfg = sk.ClassifyConfig(search=sk.SearchConfig(restarts=1, max_iters=50))
    rho = sk.werner_2x2(1 / 3 + 1e-10)
    report = sk.classify(rho, cfg)
    assert report.verdict is sk.Verdict.SEPARABLE_CERTIFIED
    assert report.search is None
    sk.check_certificate(report.certificate, rho.matrix)
    ens = single_pair_decomposition(rho, PairIndex(2, 2))
    assert ens.shape == (4, 4)
    worse = sk.classify(sk.werner_2x2(1 / 3 + 2e-9), cfg)
    assert worse.verdict is sk.Verdict.ENTANGLED_BY_PAIR_CRITERION


def test_verify_ensemble_flags_corruption():
    rho = sk.bound_2x4()
    ens = single_pair_decomposition(rho, PairIndex(2, 2))
    assert verify_ensemble(ens, rho).reconstruction_error <= 1e-12
    assert verify_ensemble(ens * 1.01, rho).reconstruction_error > 1e-3


def test_verify_ensemble_rejects_a_non_finite_member():
    rho = sk.bound_2x4()
    members = single_pair_decomposition(rho, PairIndex(2, 2))
    members[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        verify_ensemble(members, rho)


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4), (4, 4), (1, 3)])
def test_verify_ensemble_residual_is_the_worst_pair_residual(m, n):
    """The gathered residuals give the largest |pair_residual| over the
    state's pairs, 0.0 on a 1 x 3 state, which has none; members of
    another width are refused."""
    rho = sk.random_density(m, n, seed=40_000 + m * n)
    x = scaled_eigvecs(rho)
    z = random_orthonormal_columns(2 * x.count, x.count, seed=m * n) @ x.vectors
    worst = max((abs(pair_residual(b, psi)) for b in pair_operators(m, n) for psi in z),
                default=0.0)
    residual = verify_ensemble(z, rho).max_pair_residual
    assert abs(residual - worst) <= 1e-15 and (residual == 0.0) == (m == 1)
    with pytest.raises(ValueError, match=rf"members must be a \(k, {m * n}\) array"):
        verify_ensemble(z[:, 1:], rho)


@pytest.mark.parametrize("m, n, terms", [(2, 3, 3), (3, 3, 4), (2, 4, 5), (3, 4, 8), (4, 4, 4)])
def test_range_decomposition_recovers_the_mixture(m, n, terms):
    """Where dim V = l the decomposition is unique: the l members are the
    weighted product vectors the state was mixed from, in some order and
    up to phase, and they rebuild the state to roundoff."""
    rng = np.random.default_rng(100 * m + 10 * n + terms)
    weights = rng.dirichlet(np.ones(terms))
    alphas = rng.standard_normal((terms, m)) + 1j * rng.standard_normal((terms, m))
    betas = rng.standard_normal((terms, n)) + 1j * rng.standard_normal((terms, n))
    alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
    betas /= np.linalg.norm(betas, axis=1, keepdims=True)
    psi = np.sqrt(weights)[:, None] * np.einsum("ka,kb->kab", alphas, betas).reshape(terms, -1)
    rho = sk.density_matrix(m, n, psi.T @ psi.conj())
    ens = range_decomposition(rho)
    assert ens.shape == (terms, m * n)
    recon = ens.T @ ens.conj()
    assert np.linalg.norm(recon - rho.matrix) <= 1e-12
    # Each member's projector is one term's w_i |a_i b_i><a_i b_i|.
    proj_z, proj_psi = (np.einsum("ka,kb->kab", v, v.conj()) for v in (ens, psi))
    dist = np.linalg.norm(proj_z[:, None] - proj_psi[None], axis=(2, 3))
    assert sorted(np.argmin(dist, axis=1)) == list(range(terms))
    assert np.max(np.min(dist, axis=1)) <= 1e-12
    assert len(certify(ens, rho).weights) == terms


def test_range_decomposition_draws_no_generator_per_call(monkeypatch):
    """The generic element's seeded coefficients are built once per rank,
    read-only, and equal default_rng(0)'s; later calls make no generator."""
    rho, again = (sk.random_separable(3, 3, 3, seed=2) for _ in range(2))
    first = range_decomposition(rho)
    coeff = np.random.default_rng(0).standard_normal((2, 3))
    kept = decompose_module._range_coefficients(3)
    np.testing.assert_array_equal(kept, coeff[0] + 1j * coeff[1])
    assert not kept.flags.writeable

    def no_generator(*args):
        raise AssertionError("range_decomposition made a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    np.testing.assert_array_equal(range_decomposition(again), first)


def _no_condition(dim: int) -> str:
    return f"dim V = l^2 = {dim}: the partial transpose's kernel poses no condition on the range"


_KET0 = np.diag([1.0, 0.0])


@pytest.mark.parametrize("rho, message", [
    (sk.random_separable(2, 3, 8, seed=1), _no_condition(36)),
    (sk.bound_2x4(), "dim V = 9, the rank is 5"),
    (sk.horodecki_2x4(0.5), "dim V = 1, the rank is 5"),
    (sk.tiles(), "dim V = 1, the rank is 4"),
    (sk.density_matrix(1, 1, [[1.0]]), _no_condition(1)),
    (sk.density_matrix(1, 3, np.eye(3) / 3), _no_condition(9)),
    (sk.density_matrix(2, 2, np.kron(np.eye(2) / 2, _KET0)), _no_condition(4)),
    (sk.density_matrix(2, 2, np.kron(_KET0, np.eye(2) / 2)), _no_condition(4)),
], ids=["full_rank", "bound_2x4", "horodecki_b0.5", "tiles", "1x1", "identity_1x3",
        "mixed_x_pure", "pure_x_mixed"])
def test_range_decomposition_refuses_states_its_ranges_do_not_pin(rho, message):
    """A full-rank mixture leaves rho^G no kernel; bound_2x4 has more than
    its five terms' worth of V; the PPT-entangled states have only rho's
    own direction in V, which proves them entangled (dim V < l).  The 1 x 1
    state has l = l^2 = dim V = 1.  The two rank-2 products of I/2 and
    |0><0| leave rho^G a two-dimensional kernel, which poses no condition
    either (dim V = 4), so the refusal names dim V, not the kernel."""
    with pytest.raises(ValueError, match=re.escape(message)):
        range_decomposition(rho)


def _swap_factors(rho) -> sk.DensityMatrix:
    d = rho.dim
    mat = rho.matrix.reshape(rho.m, rho.n, rho.m, rho.n).transpose(1, 0, 3, 2).reshape(d, d)
    return sk.density_matrix(rho.n, rho.m, mat)


@pytest.mark.parametrize("rho", [
    sk.random_separable(2, 3, 8, seed=1),
    sk.random_separable(3, 2, 6, seed=4),
    sk.random_density(2, 3, seed=89),
    sk.random_density(3, 2, seed=89),
], ids=["separable_2x3", "separable_3x2", "ppt_draw_2x3", "ppt_draw_3x2"])
def test_ppt_subtraction_decomposition_certifies_full_rank_ppt_states(rho):
    """A full-rank PPT state takes three subtractions, each raising
    rank rho + rank rho^G's deficit by one, and then its remainder's five
    range products; the eight members certify it."""
    assert scaled_eigvecs(rho).count == 6
    assert np.linalg.eigvalsh(partial_transpose(rho))[0] > 0.0
    ens = ppt_subtraction_decomposition(rho)
    assert ens.shape == (8, 6)
    cert = certify(ens, rho)
    assert cert is not None and len(cert.weights) == 8


def test_ppt_subtraction_decomposition_swaps_a_3x2_state_and_its_members():
    """On 3 x 2 the route runs on the 2 x 3 state with the factors swapped
    and swaps each member back."""
    rho = sk.random_separable(3, 2, 7, seed=2)
    swapped = ppt_subtraction_decomposition(_swap_factors(rho))
    members = ppt_subtraction_decomposition(rho)
    np.testing.assert_allclose(members.reshape(-1, 3, 2), swapped.reshape(-1, 2, 3).swapaxes(1, 2),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 4), (4, 2), (3, 3), (1, 6), (6, 1)])
def test_ppt_subtraction_decomposition_refuses_other_shapes(m, n):
    """Only in 2 x 3 and 3 x 2 is PPT separable, so only there is a
    remainder sure to have range products."""
    with pytest.raises(ValueError, match="covers 2 x 3 and 3 x 2"):
        ppt_subtraction_decomposition(sk.random_separable(m, n, m * n, seed=0))


@pytest.mark.parametrize("rho", [sk.horodecki_2x4(0.5), sk.tiles()],
                         ids=["horodecki_b0.5", "tiles"])
def test_ppt_subtraction_decomposition_refuses_ppt_entangled_states(rho):
    """PPT-entangled states lie outside 2 x 3, so the route refuses them
    (test_criterion checks that classify never certifies them)."""
    with pytest.raises(ValueError, match="covers 2 x 3 and 3 x 2"):
        ppt_subtraction_decomposition(rho)


def test_ppt_subtraction_decomposition_refuses_an_npt_state():
    rho = sk.random_density(2, 3, seed=0)
    assert sk.ppt_min_eigenvalue(rho) < -1e-3
    with pytest.raises(ValueError, match="partial transpose has eigenvalue"):
        ppt_subtraction_decomposition(rho)
    assert sk.classify(rho).verdict is sk.Verdict.ENTANGLED_BY_PPT


def test_ppt_subtraction_decomposition_refuses_more_conditions_than_unknowns():
    """A rank-3 mixture leaves three kernel vectors in rho and three in
    rho^G: six conditions on b, more than its three components (the range
    route decomposes such states)."""
    with pytest.raises(ValueError, match="6 conditions on a product, not 3"):
        ppt_subtraction_decomposition(sk.random_separable(2, 3, 3, seed=0))


def test_ppt_subtraction_decomposition_refuses_a_fit_missing_a_product(monkeypatch):
    """Without one of the remainder's five range products the least-squares
    fit misses it, and the route raises rather than return a near miss."""
    real = decompose_module._range_products
    monkeypatch.setattr(decompose_module, "_range_products", lambda kc, lc: real(kc, lc)[1:])
    with pytest.raises(ValueError, match="4 range products fit the remainder within"):
        ppt_subtraction_decomposition(sk.random_separable(2, 3, 8, seed=1))


@pytest.mark.parametrize("c1", [0, 1, 2, 3])
def test_range_products_solve_their_conditions(c1):
    """Each unit product a x b that _range_products returns meets
    a^T kc_s b = 0 and conj(a)^T lc_s b = 0.  With only kc's rows (or only
    lc's) the determinant is a cubic in z (or in conj(z)) and each of its
    three roots is a product; random mixed conditions have no fixed count."""
    g = np.random.default_rng(c1).standard_normal((2, 3, 2, 3))
    rows = g[0] + 1j * g[1]
    kc, lc = rows[:c1], rows[c1:]
    products = decompose_module._range_products(kc, lc).reshape(-1, 2, 3)
    u, s, vh = np.linalg.svd(products)
    a, b = u[:, :, 0] * s[:, :1], vh[:, 0]
    residual = np.concatenate([np.einsum("si,cij,sj->sc", a, kc, b),
                               np.einsum("si,cij,sj->sc", a.conj(), lc, b)], axis=1)
    assert len(products) == 3 if c1 in (0, 3) else len(products) >= 1
    assert np.max(np.abs(residual)) <= 1e-10


def test_ppt_subtraction_decomposition_members_with_a_perturbed_weight_fail_certify():
    """Raising any one member's weight by 1e-6 leaves the mixture 1e-6
    from rho, beyond RECON_TOL, so search.certify refuses it."""
    rho = sk.random_separable(2, 3, 7, seed=3)
    members = ppt_subtraction_decomposition(rho)
    assert certify(members, rho) is not None
    for i, weight in enumerate(np.linalg.norm(members, axis=1) ** 2):
        perturbed = members.copy()
        perturbed[i] *= np.sqrt(1.0 + 1e-6 / weight)
        assert certify(perturbed, rho) is None


def test_ppt_subtraction_decomposition_draws_no_generator_per_call(monkeypatch):
    """The chart and the subtraction coefficients are drawn once, read-only."""
    rho, again = (sk.random_separable(2, 3, 6, seed=5) for _ in range(2))
    first = ppt_subtraction_decomposition(rho)
    chart, draws = decompose_module._subtraction_draws()
    assert not chart.flags.writeable and not draws.flags.writeable
    np.testing.assert_allclose(chart.conj().T @ chart, np.eye(2), atol=1e-15)

    def no_generator(*args):
        raise AssertionError("ppt_subtraction_decomposition made a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    np.testing.assert_array_equal(ppt_subtraction_decomposition(again), first)


def _dim_v_from_hermitian_basis(rho) -> int:
    """dim V as a real linear system: l^2 - rank of X -> (X^G K) over the
    Hermitian X = E H E^H, H running over a real basis of l x l Hermitian
    matrices, E rho's unit eigenvectors and K the kernel of rho^G."""
    m, n, d = rho.m, rho.n, rho.dim
    w, vecs = np.linalg.eigh(rho.matrix)
    e = vecs[:, w > 1e-10]
    l = e.shape[1]
    pt = rho.matrix.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(d, d)
    wg, vg = np.linalg.eigh(pt)
    kernel = vg[:, wg <= 1e-10]
    if kernel.shape[1] == 0:
        return l * l
    columns = []
    for j in range(l):
        for k in range(j, l):
            units = [1.0] if j == k else [1.0, 1j]
            for unit in units:
                h = np.zeros((l, l), dtype=complex)
                h[j, k] += unit
                h[k, j] += np.conj(unit)
                x = e @ h @ e.conj().T
                xg = x.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(d, d)
                y = (xg @ kernel).reshape(-1)
                columns.append(np.concatenate([y.real, y.imag]))
    s = np.linalg.svd(np.array(columns).T, compute_uv=False)
    return l * l - int(np.count_nonzero(s > 1e-9 * s[0]))


@pytest.mark.parametrize("rho, dim", [
    (sk.horodecki_2x4(0.5), 1),
    (sk.tiles(), 1),
    (sk.bound_2x4(), 9),
    (sk.random_separable(3, 3, 3, seed=0), 3),  # dim V = l: the range route's case
    (sk.random_separable(2, 3, 8, seed=1), 36),  # full rank: no kernel, dim V = l^2
], ids=["horodecki_b0.5", "tiles", "bound_2x4", "rank3_mixture", "full_rank"])
def test_range_space_matches_the_hermitian_count(rho, dim):
    """range_space's complex null space has the dimension of the real
    system over a Hermitian basis.  The basis comes only where dim V = l,
    and each of its C satisfies both conditions X^G K = 0 and K^H X^G = 0
    with X = E C E^H."""
    assert _dim_v_from_hermitian_basis(rho) == dim
    found, _, basis = range_space(rho)
    assert found == dim
    if dim != scaled_eigvecs(rho).count:
        assert basis is None
        return
    assert basis.shape == (dim, dim, dim)
    m, n, d = rho.m, rho.n, rho.dim
    x = scaled_eigvecs(rho)  # C is written in this eigenbasis
    e = (x.vectors / np.sqrt(x.values)[:, None]).T
    wg, vg = np.linalg.eigh(sk.partial_transpose(rho))
    kernel = vg[:, wg <= 1e-10]
    for c in basis:
        x = e @ c @ e.conj().T
        xg = x.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(d, d)
        assert np.linalg.norm(xg @ kernel) <= 1e-10
        assert np.linalg.norm(kernel.conj().T @ xg) <= 1e-10
    assert np.linalg.matrix_rank(basis.reshape(dim, -1), tol=1e-8) == dim


def test_range_space_counts_a_wide_system_without_a_basis():
    """Fewer than l^2 - l conditions leave dim V > l, where nothing reads a
    basis: a rank-35 6x6 mixture gets its count from the singular values
    alone, with no 1225 x 1225 factor on the way (48 MB)."""
    rho = sk.random_separable(6, 6, 35, seed=0)
    assert scaled_eigvecs(rho).count == 35
    tracemalloc.start()
    try:
        dim, _, basis = range_space(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == _dim_v_from_hermitian_basis(rho) == 1154
    assert basis is None
    assert peak < 2**23
    with pytest.raises(ValueError, match="dim V = 1154, the rank is 35"):
        range_decomposition(rho)
