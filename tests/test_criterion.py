"""Tests for scaled eigenvectors, pair spectra, and the classification pipeline."""

import dataclasses
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepkit as sk
from sepkit.criterion import ClassifyConfig, Verdict, pair_reports, pair_spectrum
from sepkit.decompose import a_value, range_space
from sepkit.linalg import hermitian_eig, scaled_eigvecs, singular_values, takagi
from sepkit.pairs import pair_operators, tau_matrix
from sepkit.search import SearchConfig, check_certificate, minimize, pair_taus
from sepkit.states import BOUNDARY_TOL, RANK_TOL

# Nonzero entries (1-based) of the three tau matrices of the built-in 2x4
# state in its reference eigenbasis, together with the resulting spectra.
TAU_GOLDEN = [
    ({(2, 4): 0.125, (4, 2): 0.125, (3, 3): -0.25},
     [0.25, 0.125, 0.125, 0.0, 0.0], 3, 0.0),
    ({(2, 5): 0.125, (5, 2): 0.125, (3, 4): -0.125, (4, 3): -0.125},
     [0.125, 0.125, 0.125, 0.125, 0.0], 4, -0.25),
    ({(1, 2): 0.125, (2, 1): 0.125, (3, 5): -0.125, (5, 3): -0.125},
     [0.125, 0.125, 0.125, 0.125, 0.0], 4, -0.25),
]


def test_scaled_eigvecs_reassemble_states():
    """Rows satisfy <x_i|x_j> = t_i delta_ij and sum |x_i><x_i| = rho."""
    for rho in (sk.bell(), sk.bound_2x4(), sk.random_density(3, 3, rank=4, seed=1)):
        x = scaled_eigvecs(rho)
        gram = x.vectors.conj() @ x.vectors.T
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-12)
        assert np.all(np.diag(gram).real > 0)
        recon = np.einsum("ia,ib->ab", x.vectors, x.vectors.conj())
        np.testing.assert_allclose(recon, rho.matrix, atol=1e-12)


def assert_scaled_eigvecs_are_hermitian_eig(rho):
    eig = hermitian_eig(rho.matrix)
    keep = eig.eigenvalues > RANK_TOL
    t = eig.eigenvalues[keep]
    x = scaled_eigvecs(rho)
    assert x.values.tobytes() == t.tobytes()
    assert x.vectors.tobytes() == (eig.eigenvectors[:, keep] * np.sqrt(t)[None, :]).T.tobytes()


def test_scaled_eigvecs_reuse_the_validation_spectrum():
    """scaled_eigvecs reads the eigendecomposition the state was validated
    with and gives, bit for bit, what hermitian_eig(rho.matrix) gives."""
    zoo = [sk.bound_2x4(), sk.horodecki_2x4(0.3), sk.tiles(), sk.bell(), sk.werner_2x2(0.7),
           sk.isotropic(3, 0.4), sk.random_separable(3, 2, terms=5, seed=2),
           sk.product(np.eye(2) / 2, np.eye(3) / 3), sk.random_density(1, 4, seed=0)]
    for rho in zoo:
        assert_scaled_eigvecs_are_hermitian_eig(rho)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.data(), st.integers(0, 2**32 - 1))
def test_scaled_eigvecs_reuse_the_validation_spectrum_property(m, n, data, seed):
    rank = data.draw(st.integers(1, m * n), label="rank")
    assert_scaled_eigvecs_are_hermitian_eig(sk.random_density(m, n, rank=rank, seed=seed))


def test_scaled_eigvecs_count_is_rank():
    assert scaled_eigvecs(sk.bell()).count == 1
    assert scaled_eigvecs(sk.bound_2x4()).count == 5
    assert scaled_eigvecs(sk.random_density(2, 2, rank=3, seed=0)).count == 3


def test_scaled_eigvecs_override_accepted():
    x = scaled_eigvecs(sk.bound_2x4(), basis_override=sk.bound_2x4_basis())
    np.testing.assert_array_equal(x.vectors, sk.bound_2x4_basis())


def test_scaled_eigvecs_override_validation():
    rho = sk.bound_2x4()
    good = sk.bound_2x4_basis()
    with pytest.raises(ValueError, match="does not match dimension"):
        scaled_eigvecs(rho, basis_override=good[:, :6])
    with pytest.raises(ValueError, match="not orthogonal"):
        scaled_eigvecs(rho, basis_override=good + 1e-3)
    with pytest.raises(ValueError, match="do not reassemble"):
        scaled_eigvecs(rho, basis_override=np.roll(good, 1, axis=1))
    with pytest.raises(ValueError, match="norms do not match the nonzero spectrum"):
        scaled_eigvecs(rho, basis_override=2 * good)
    with pytest.raises(ValueError, match="norms do not match the nonzero spectrum"):
        scaled_eigvecs(rho, basis_override=good[:4])


def test_a_non_finite_override_is_a_value_error():
    """A NaN basis once passed every check, and then failed in the SVD."""
    nan = np.full((5, 8), np.nan)
    with pytest.raises(ValueError, match="not orthogonal"):
        scaled_eigvecs(sk.bound_2x4(), basis_override=nan)


def test_tau_matrices_of_bound_state():
    """Entrywise golden values in the reference gauge, all three pairs."""
    x = scaled_eigvecs(sk.bound_2x4(), basis_override=sk.bound_2x4_basis())
    for b, (entries, lambdas, l_prime, a) in zip(pair_operators(2, 4), TAU_GOLDEN):
        tau = tau_matrix(x, b)
        expected = np.zeros((5, 5), dtype=complex)
        for (i, j), val in entries.items():
            expected[i - 1, j - 1] = val
        np.testing.assert_allclose(tau, expected, atol=1e-14)
        lam, lp = pair_spectrum(tau)
        np.testing.assert_allclose(lam, lambdas, atol=1e-13)
        assert lp == l_prime
        assert a_value(lam) == pytest.approx(a, abs=1e-13)


def test_tau_matrix_is_symmetric():
    for seed in range(4):
        rho = sk.random_density(2, 3, seed=seed)
        x = scaled_eigvecs(rho)
        for b in pair_operators(2, 3):
            tau = tau_matrix(x, b)
            np.testing.assert_allclose(tau, tau.T, atol=1e-13)


def test_pair_spectrum_matches_singular_values():
    rng = np.random.default_rng(12)
    for _ in range(6):
        t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        tau = (t + t.T) / 2
        lam, l_prime = pair_spectrum(tau)
        np.testing.assert_allclose(lam, singular_values(tau), atol=1e-12)
        assert l_prime == np.sum(lam > 1e-10)
    with pytest.raises(ValueError, match="tau must be complex symmetric"):
        pair_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def assert_reports_match_per_pair_spectra(rho):
    """pair_reports against the dense route: pair_spectrum(tau_matrix(x, b)) per pair."""
    x = scaled_eigvecs(rho)
    reports = pair_reports(x, rho.m, rho.n)
    ops = pair_operators(rho.m, rho.n)
    assert [rep.pair for rep in reports] == [b.pair for b in ops]
    for b, rep in zip(ops, reports):
        lam, l_prime = pair_spectrum(tau_matrix(x, b))
        assert rep.lambdas.shape == (x.count,)
        np.testing.assert_allclose(rep.lambdas, lam, rtol=0, atol=1e-13)
        assert rep.l_prime == l_prime
        assert abs(rep.a_value - a_value(lam)) <= 1e-13


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 6) for n in range(m, 6)])
@pytest.mark.parametrize("rank", [1, 2, 3, None], ids=["rank1", "rank2", "rank3", "full"])
def test_pair_reports_match_per_pair_spectra(m, n, rank):
    """The 4 x 4 cores give the dense spectra, also when l < 4 makes R l x 4."""
    assert_reports_match_per_pair_spectra(sk.random_density(m, n, rank=rank, seed=m * n))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.data(), st.integers(0, 2**32 - 1))
def test_pair_reports_match_per_pair_spectra_property(m, n, data, seed):
    rank = data.draw(st.integers(1, m * n), label="rank")
    assert_reports_match_per_pair_spectra(sk.random_density(m, n, rank=rank, seed=seed))


def test_pair_report_a_values_are_a_value_bit_for_bit():
    """pair_reports scores its cores with a_value; the padded rows agree."""
    cases = [sk.bound_2x4(), sk.tiles(), sk.bell(), sk.werner_2x2(0.2)]
    cases += [sk.random_density(m, n, rank=rank, seed=m + n)
              for m, n in [(2, 2), (2, 3), (3, 4), (8, 8)] for rank in (1, 2, 3, None)]
    for rho in cases:
        for rep in pair_reports(scaled_eigvecs(rho), rho.m, rho.n):
            assert rep.a_value == a_value(rep.lambdas)


def test_pair_taus_is_the_stacked_tau_matrix():
    """Bit for bit and in enumeration order, from 2x2 to 8x8."""
    cases = [sk.bound_2x4(), sk.tiles(), sk.bell(), sk.random_density(3, 4, rank=2, seed=3),
             sk.random_density(8, 8, seed=5)]
    for rho in cases:
        x = scaled_eigvecs(rho)
        stacked = np.array([tau_matrix(x, b) for b in pair_operators(rho.m, rho.n)])
        np.testing.assert_array_equal(pair_taus(x, rho.m, rho.n), stacked)
    x = scaled_eigvecs(sk.bound_2x4(), basis_override=sk.bound_2x4_basis())
    with pytest.raises(ValueError, match="operator needs 9"):
        pair_taus(x, 3, 3)
    with pytest.raises(ValueError, match="vectors have dimension 8, operator needs 9"):
        pair_reports(x, 3, 3)


def test_a_value_cases():
    assert a_value(np.array([0.25, 0.125, 0.125, 0.0, 0.0])) == pytest.approx(0.0)
    assert a_value(np.array([0.7, 0.0])) == pytest.approx(0.7)
    assert a_value(np.array([0.5, 0.2, 0.2])) == pytest.approx(0.1)
    assert a_value(np.array([0.5, 0.2, 0.2])[:2]) == pytest.approx(0.3)  # l' = 2 by slicing
    assert a_value(np.array([0.0])) == 0.0
    assert a_value([1.0, 0.5 * RANK_TOL, 0.25 * RANK_TOL]) == 1.0  # below RANK_TOL counts as 0
    assert isinstance(a_value([0.5, 0.2]), float)


def _a_value_by_hand(row) -> float:
    """lambda_1 minus lambda_2 + ... + lambda_l', added left to right."""
    l_prime = int(np.count_nonzero(row > RANK_TOL))
    if l_prime == 0:
        return 0.0
    total = 0.0
    for lam in row[1:l_prime].tolist():
        total += lam
    return row[0] - total


def test_batched_a_value_is_the_per_row_a_value_bit_for_bit():
    """One call over a (P, L) batch gives each row's own a value: rows with
    nothing above RANK_TOL, cores narrower than four, and the Takagi
    lambdas of 3 x 3 states (l = 9, at most four above RANK_TOL), which
    single_pair_decomposition scores."""
    tol = RANK_TOL
    edges = np.array([[0.0, 0.0, 0.0, 0.0], [0.5 * tol, 0.25 * tol, 0.1 * tol, 0.0],
                      [tol, tol, 0.5 * tol, 0.0], [1.0, 0.5 * tol, 0.0, 0.0],
                      [0.25, 0.125, 0.125, 0.5 * tol]])
    rng = np.random.default_rng(7)
    batches = []
    for width in (1, 2, 3, 4):
        scale = 10.0 ** rng.integers(-12, 1, (40, 1))  # some rows straddle RANK_TOL
        rows = -np.sort(-rng.random((40, width)) * scale, axis=1)
        batches.append(np.concatenate([edges[:, :width], rows]))
    takagi_rows = []
    for seed in range(4):
        rho = sk.random_density(3, 3, seed=40_000 + seed)
        x = scaled_eigvecs(rho)
        takagi_rows += [takagi(tau_matrix(x, b)).lambdas for b in pair_operators(3, 3)]
    long = np.array(takagi_rows)
    long[0, 1:] = 0.0  # l' = 1
    long[1] = 0.0  # l' = 0
    assert long.shape[1] == 9 and np.all(np.count_nonzero(long > RANK_TOL, axis=1) <= 4)
    batches.append(long)
    for batch in batches:
        scored = a_value(batch)
        assert scored.shape == batch.shape[:1]
        for row, a in zip(batch, scored.tolist()):
            assert a == a_value(row) == _a_value_by_hand(row)


def test_pair_spectrum_gauge_invariance():
    """Degenerate eigenspaces leave a gauge freedom in the eigenbasis; the
    pair spectra must not depend on it.  The built-in 2x4 state has a
    triple and a double eigenvalue, so the default gauge and the reference
    gauge differ while every lambda agrees."""
    rho = sk.bound_2x4()
    default = pair_reports(scaled_eigvecs(rho), 2, 4)
    pinned = pair_reports(scaled_eigvecs(rho, basis_override=sk.bound_2x4_basis()), 2, 4)
    for d, p in zip(default, pinned):
        np.testing.assert_allclose(d.lambdas, p.lambdas, atol=1e-10)
        assert d.a_value == pytest.approx(p.a_value, abs=1e-10)


def test_partial_transpose():
    """Transposing the second factor preserves trace and hermiticity."""
    pt = sk.partial_transpose(sk.bell())
    np.testing.assert_allclose(np.linalg.eigvalsh(pt)[0], -0.5, atol=1e-14)
    for seed in range(4):
        rho = sk.random_density(2, 3, seed=seed)
        pt2 = sk.partial_transpose(rho)
        np.testing.assert_allclose(pt2, pt2.conj().T, atol=1e-13)
        assert np.trace(pt2).real == pytest.approx(1.0, abs=1e-13)


def test_ppt_min_eigenvalue():
    assert sk.ppt_min_eigenvalue(sk.bell()) == pytest.approx(-0.5, abs=1e-14)
    assert sk.ppt_min_eigenvalue(sk.bound_2x4()) == pytest.approx(0.0, abs=1e-13)
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    assert sk.ppt_min_eigenvalue(sk.product(rho_a, rho_b)) >= -1e-12



def test_ppt_verdict_ignores_an_anti_hermitian_residue():
    """|00><00| plus a 3e-9 anti-Hermitian term passes validation and its
    Hermitian part is |00><00| exactly: the partial transpose's minimum is
    that of its Hermitian part, so the state is certified, not entangled."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    mat[0, 3], mat[3, 0] = 3e-9, -3e-9
    rho = sk.density_matrix(2, 2, mat)
    assert sk.ppt_min_eigenvalue(rho) >= -BOUNDARY_TOL
    assert sk.classify(rho).verdict is Verdict.SEPARABLE_CERTIFIED


def test_state_eigenvalue_slack_is_the_ppt_boundary():
    """A state may have an eigenvalue down to -BOUNDARY_TOL and no lower, so
    a diagonal state, its own partial transpose, is never EntangledByPPT."""
    assert sk.states.BOUNDARY_TOL == BOUNDARY_TOL
    for t, dims in [(5e-9, (2, 2)), (1.1 * BOUNDARY_TOL, (2, 2)), (5e-9, (1, 4))]:
        with pytest.raises(ValueError, match="eigenvalue below"):
            sk.density_matrix(*dims, np.diag([1 + t, 0, 0, -t]))
    rho = sk.density_matrix(2, 2, np.diag([1 + 0.9 * BOUNDARY_TOL, 0, 0, -0.9 * BOUNDARY_TOL]))
    assert sk.ppt_min_eigenvalue(rho) == -0.9 * BOUNDARY_TOL
    assert sk.classify(rho).verdict is not Verdict.ENTANGLED_BY_PPT

def test_pure_product_check():
    assert sk.pure_product_check(np.kron([1, 0], [0, 1, 0]), 2, 3)
    assert not sk.pure_product_check(np.array([1, 0, 0, 1]) / np.sqrt(2), 2, 2)
    with pytest.raises(ValueError, match="zero vector"):
        sk.pure_product_check(np.zeros(4), 2, 2)
    with pytest.raises(ValueError, match="state has length 4, expected 6"):
        sk.pure_product_check(np.ones(4), 2, 3)
    # The tolerance is PRODUCT_TOL, the one certificates use.
    near = np.kron([1, 0], [1, 0]) + 1e-7 * np.kron([0, 1], [0, 1])
    assert sk.pure_product_check(near, 2, 2)
    assert sk.certificate_from_members(near[None, :], 2, 2).weights.shape == (1,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_product_check_rejects_a_non_finite_vector(bad):
    """A ValueError, not the LinAlgError of an SVD that does not converge."""
    psi = np.kron([1.0, 0.0], [0.0, 1.0, 0.0]).astype(complex)
    psi[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sk.pure_product_check(psi, 2, 3)


def test_tolerances_are_constants():
    """No public parameter, method parameter or dataclass field ends in tol: every
    tolerance is RANK_TOL, BOUNDARY_TOL, PRODUCT_TOL, RECON_TOL, STATE_TOL or a
    fixed constant of its module."""
    found = set()
    for mod in (sk.criterion, sk.decompose, sk.linalg, sk.pairs, sk.search, sk.states):
        for name in mod.__all__:
            obj = getattr(mod, name)
            callables = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                callables = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                             if inspect.isfunction(fn)]
                if dataclasses.is_dataclass(obj):
                    found |= {(name, f.name) for f in dataclasses.fields(obj)}
            for label, fn in callables:
                found |= {(label, p) for p in inspect.signature(fn).parameters}
    assert {(label, p) for label, p in found if p.endswith("tol")} == set()


def test_pair_concurrence_2x2():
    """The single pair's a value of a 2x2 state is the concurrence combination
    lambda_1 - lambda_2 - lambda_3 - lambda_4."""
    def a(rho):
        return pair_reports(scaled_eigvecs(rho), 2, 2)[0].a_value

    assert a(sk.bell()) == pytest.approx(1.0, abs=1e-12)
    mixed = sk.density_matrix(2, 2, np.eye(4) / 4)
    assert a(mixed) == pytest.approx(-0.5, abs=1e-12)
    pure00 = np.zeros((4, 4))
    pure00[0, 0] = 1.0
    assert a(sk.density_matrix(2, 2, pure00)) == pytest.approx(0.0, abs=1e-12)


def test_classify_entangled_by_pair_criterion():
    report = sk.classify(sk.bell())
    assert report.verdict is Verdict.ENTANGLED_BY_PAIR_CRITERION
    assert report.entangling_pair == 1
    assert report.pairs[0].a_value == pytest.approx(1.0, abs=1e-12)

    report = sk.classify(sk.werner_2x2(1 / 3 + 1e-3))
    assert report.verdict is Verdict.ENTANGLED_BY_PAIR_CRITERION


def test_classify_entangled_by_ppt():
    """A state whose pair values are all negative but whose partial
    transpose is not: only the second stage can flag it."""
    rho = sk.random_density(2, 3, rank=3, seed=3066)
    report = sk.classify(rho)
    assert report.verdict is Verdict.ENTANGLED_BY_PPT
    assert report.ppt_min_eigenvalue < -1e-6
    assert all(rep.a_value <= 1e-9 for rep in report.pairs)
    assert report.entangling_pair is None


def test_classify_certifies_separable_states():
    """Werner noise below the threshold and pure product states come back
    with a checked decomposition, not just an absence of violations."""
    for rho in (sk.werner_2x2(0.2), sk.werner_2x2(1 / 3 - 1e-3)):
        report = sk.classify(rho)
        assert report.verdict is Verdict.SEPARABLE_CERTIFIED
        err = np.linalg.norm(report.certificate.density() - rho.matrix)
        assert err < 1e-8

    rng = np.random.default_rng(2)
    alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
    beta = rng.normal(size=3) + 1j * rng.normal(size=3)
    rho = sk.product(np.outer(alpha, alpha.conj()) / np.linalg.norm(alpha) ** 2,
                     np.outer(beta, beta.conj()) / np.linalg.norm(beta) ** 2)
    report = sk.classify(rho)
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED
    assert len(report.certificate.weights) == 1
    assert report.search is None


@pytest.mark.parametrize("m,n,rank", [(1, 3, 2), (1, 4, 4), (3, 1, 3), (1, 1, 1)])
def test_classify_certifies_one_factor_systems(m, n, rank):
    """With a one-dimensional factor every vector is a product: no pairs, and
    the eigen-ensemble is the checked certificate."""
    rho = sk.random_density(m, n, rank=rank, seed=4)
    report = sk.classify(rho)
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED
    assert report.pairs == [] and report.entangling_pair is None and report.search is None
    assert len(report.certificate.weights) == rank
    sk.check_certificate(report.certificate, rho.matrix)
    assert np.linalg.norm(report.certificate.density() - rho.matrix) <= 1e-12


def test_classify_maximally_mixed_2x2():
    report = sk.classify(sk.density_matrix(2, 2, np.eye(4) / 4))
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED
    np.testing.assert_allclose(report.certificate.density(), np.eye(4) / 4, atol=1e-10)


def _diagonal_state(m, n, diag):
    return sk.density_matrix(m, n, np.diag(np.asarray(diag, dtype=complex)))


@pytest.mark.parametrize("m, n, diag", [
    *[(m, n, [1 / (m * n)] * (m * n))
      for m, n in [(2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 4), (4, 5)]],
    (2, 3, [1 / 4] * 4 + [0, 0]),
    (2, 3, [1 / 5] * 5 + [0]),
], ids=["2x3", "3x2", "3x3", "2x4", "3x4", "4x4", "4x5", "2x3_rank4", "2x3_rank5"])
def test_classify_certifies_degenerate_spectra_through_the_search(m, n, diag):
    """I/mn, and on 2 x 3 two rank-deficient diagonal states, have
    degenerate spectra.  On 2 x 3 and 3 x 2 the subtraction route refuses
    them, its kernels posing 4 conditions on a product, so they go on to
    the search, which certifies every one at the budget."""
    rho = _diagonal_state(m, n, diag)
    report = sk.classify(rho, ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200)))
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED
    check_certificate(report.certificate, rho.matrix)
    if (m, n) in ((2, 3), (3, 2)):
        with pytest.raises(ValueError, match="the kernels pose 4 conditions on a product, not 3"):
            sk.ppt_subtraction_decomposition(rho)
        assert report.search is not None


def test_classify_certifies_bound_2x4():
    """The rank-5 2x4 state passes both entanglement tests and the search
    then finds an exact five-member product decomposition."""
    report = sk.classify(sk.bound_2x4())
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED
    assert report.ppt_min_eigenvalue == pytest.approx(0.0, abs=1e-13)
    assert report.search is not None
    assert report.search.best_residual < 1e-20
    err = np.linalg.norm(report.certificate.density() - sk.bound_2x4().matrix)
    assert err < 1e-8


@pytest.mark.parametrize("rho", [
    sk.horodecki_2x4(0.2), sk.horodecki_2x4(0.5), sk.horodecki_2x4(0.8), sk.tiles(),
], ids=["horodecki_b0.2", "horodecki_b0.5", "horodecki_b0.8", "tiles"])
def test_classify_never_certifies_bound_entangled_states(rho):
    """PPT-entangled states pass both entanglement tests, so the search
    runs; it must end Inconclusive, never SeparableCertified."""
    cfg = ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200))
    assert sk.ppt_min_eigenvalue(rho) >= -1e-12
    x = scaled_eigvecs(rho)
    assert all(rep.a_value <= BOUNDARY_TOL for rep in pair_reports(x, rho.m, rho.n))
    report = sk.classify(rho, cfg)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.certificate is None
    assert report.search is not None and report.search.certificate is None


def test_classify_never_certifies_noisy_horodecki_states():
    """(1 - p) rho_b + p I/8 at b = 0.234 is full-rank and PPT, and still
    entangled at these p: the pair criterion over all minors gives it
    a-values from +1.3e-4 to +1.6e-3.  No range count applies, so the
    search runs, at the two full-rank sizes a fit is tried at, k = 8 and
    16, and spends the whole budget.  At p = 1e-2 it ends at F ~ 3e-5,
    close enough for the polish to take up.  However close that fit gets,
    certify must refuse it."""
    cfg = ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200))
    polished = 0
    for p in (1e-4, 1e-3, 1e-2):
        rho = sk.density_matrix(2, 4, (1 - p) * sk.horodecki_2x4(0.234).matrix + p * np.eye(8) / 8)
        assert scaled_eigvecs(rho).count == 8
        report = sk.classify(rho, cfg)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.certificate is None and report.search.certificate is None
        assert (report.search.k, report.search.restarts_used,
                report.search.iterations_used) == (16, 2, 400)
        if p == 1e-2:
            assert report.search.best_residual <= 1e-4
            assert report.search.polish_attempts >= 1
        polished += report.search.polish_attempts
    assert polished >= 1


@pytest.mark.parametrize("rho, search", [
    (sk.random_separable(2, 4, 10, seed=1), (16, 1, 29, 0, 1)),
    (sk.bound_2x4(), (5, 1, 74, 0, 0)),
    (sk.horodecki_2x4(0.5), (0, 0, 0, 0, 0)),
    (sk.tiles(), (0, 0, 0, 0, 0)),
], ids=["full_rank", "bound_2x4", "horodecki_b0.5", "tiles"])
def test_classify_falls_through_to_the_search(rho, search):
    """Where range_decomposition refuses a state (see test_decompose) and
    no later closed form decides it (the full-rank state is 2x4, outside
    ppt_subtraction_decomposition's shapes), classify reports exactly the
    search a direct minimize call runs: the same k, restarts, iterations,
    rejections and polish attempts.  The full-rank state walks k = 2l = 16
    first, and its first restart is polished into its certificate when its
    descent first reaches the polish gate, at iteration 29 of 200.  The PPT-entangled states have
    dim V = 1 below their rank, so no size is walked."""
    cfg = SearchConfig(restarts=1, max_iters=200)
    found = sk.classify(rho, ClassifyConfig(search=cfg)).search
    assert (found.k, found.restarts_used, found.iterations_used,
            found.rejected_extractions, found.polish_attempts) == search
    alone = minimize(rho, cfg)
    assert found.best_residual == alone.best_residual
    assert found.best_u.tobytes() == alone.best_u.tobytes()


@pytest.mark.parametrize("rho", [sk.werner_2x2(0.2), sk.random_separable(3, 4, 12, seed=1)],
                         ids=["closed_form", "search"])
@pytest.mark.parametrize("config, message", [
    (SearchConfig(restarts=1, max_iters=200), "config must be a ClassifyConfig, got SearchConfig"),
    (ClassifyConfig(search=ClassifyConfig()),
     "config.search must be a SearchConfig, got ClassifyConfig"),
], ids=["search_config", "nested_classify_config"])
def test_classify_rejects_a_config_of_another_type(rho, config, message):
    """A ValueError naming the expected type, whichever route would decide
    the state: Werner is certified in closed form, where a wrong config
    was once ignored, and the full-rank 3 x 4 state reaches the search."""
    with pytest.raises(ValueError, match=message):
        sk.classify(rho, config)


def _spy_range(monkeypatch):
    """Record the matrices decompose._spectrum decomposes (rho^G's, once
    per range space; the 2 x 3 subtraction route's too) and the shapes of
    the 2-d SVDs that compute singular vectors; classify runs those on
    the range map only."""
    spectra, shapes = [], []
    real_spectrum, real_svd = sk.decompose._spectrum, np.linalg.svd

    def spectrum(h):
        spectra.append(h)
        return real_spectrum(h)

    def svd(a, *args, **kwargs):
        if np.ndim(a) == 2 and kwargs.get("compute_uv", True):
            shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(sk.decompose, "_spectrum", spectrum)
    monkeypatch.setattr(np.linalg, "svd", svd)
    return spectra, shapes


@pytest.mark.parametrize("make", [sk.tiles, sk.bound_2x4], ids=["tiles", "bound_2x4"])
def test_classify_computes_the_range_space_once(monkeypatch, make):
    """range_decomposition refuses both states (dim V = 1 and 9, against
    ranks 4 and 5) and the search reads dim V again; rho^G's eigh, and
    with it the range map, still runs once per state."""
    rho = make()
    spectra, _ = _spy_range(monkeypatch)
    report = sk.classify(rho, ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200)))
    assert report.search is not None
    assert len(spectra) == 1
    assert np.array_equal(spectra[0], sk.partial_transpose(rho))


@pytest.mark.parametrize("make, vector_svds", [
    (lambda: sk.horodecki_2x4(0.5), 0),
    (sk.tiles, 0),
    (sk.bound_2x4, 0),
    (lambda: sk.random_separable(3, 3, 3, seed=0), 1),
], ids=["rho_0.5", "tiles", "bound_2x4", "rank3_mixture"])
def test_classify_builds_the_range_basis_only_when_dim_v_is_l(monkeypatch, make, vector_svds):
    """dim V comes from the singular values alone; the basis of V, an SVD
    with vectors of the l^2-column range map, is built only on the rank-3
    mixture, whose dim V = l is what range_decomposition reads."""
    rho = make()
    l = scaled_eigvecs(rho).count
    spectra, shapes = _spy_range(monkeypatch)
    sk.classify(rho, ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200)))
    assert len(spectra) == 1
    assert len(shapes) == vector_svds
    assert all(cols == l * l for _, cols in shapes)


def test_the_range_route_reads_the_basis_range_space_builds(monkeypatch):
    """The basis that classify's range route read on a dim V = l state is
    the one range_space gives a fresh parse of the same text, bit for bit,
    and reading it back after classify decomposes and builds nothing."""
    text = sk.serialize_state(sk.random_separable(3, 3, 3, seed=0))
    rho = sk.parse_state(text)
    spectra, shapes = _spy_range(monkeypatch)
    report = sk.classify(rho)
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED and report.search is None
    dim, _, basis = range_space(rho)
    assert (len(spectra), len(shapes)) == (1, 1)
    fresh_dim, _, fresh = range_space(sk.parse_state(text))
    assert dim == fresh_dim == scaled_eigvecs(rho).count
    assert basis.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("make", [sk.tiles, lambda: sk.horodecki_2x4(0.5),
                                  lambda: sk.werner_2x2(0.2)],
                         ids=["tiles", "rho_0.5", "werner_0.2"])
def test_classify_builds_no_eigenbasis(monkeypatch, make):
    """Validation builds the scaled eigenbasis once; classify and every
    route it runs read that basis and fix no phases again.  Two reads give
    equal, read-only arrays."""
    rho, calls, real = make(), [], sk.states._fix_column_phases

    def spy(v):
        calls.append(v.shape)
        return real(v)

    for module in (sk.states, sk.linalg):
        monkeypatch.setattr(module, "_fix_column_phases", spy)
    sk.classify(rho, ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200)))
    assert calls == []
    first, second = scaled_eigvecs(rho), scaled_eigvecs(rho)
    for a, b in ((first.vectors, second.vectors), (first.values, second.values)):
        assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize("module, name, rho", [
    (sk.search, "minimize", sk.tiles()),
    (sk.search, "certify", sk.werner_2x2(0.2)),
    (sk.decompose, "single_pair_decomposition", sk.werner_2x2(0.2)),
    (sk.decompose, "range_decomposition", sk.random_separable(3, 3, 3, seed=0)),
], ids=["minimize", "certify", "single_pair", "range"])
def test_classify_looks_each_route_up_at_call_time(monkeypatch, module, name, rho):
    """A spy set on the module after import sees classify's call: no route
    binds decompose or search functions when criterion is imported."""
    original, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    sk.classify(rho, ClassifyConfig(search=SearchConfig(restarts=1, max_iters=5)))
    assert calls


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4), (3, 4)])
def test_an_anti_hermitian_residue_moves_neither_dim_v_nor_the_verdict(m, n):
    """Low-rank mixtures plus 3e-9 times a unit real antisymmetric matrix
    are valid states with the mixture as their Hermitian part.  Every
    reader sees that part (eigh reads one triangle only), so dim V stays
    l and the range route certifies them without the search."""
    cfg = ClassifyConfig(search=SearchConfig(restarts=1, max_iters=1))
    for terms, seed in itertools.product((2, 3), range(2)):
        clean = sk.random_separable(m, n, terms, seed=seed)
        a = np.random.default_rng(seed).standard_normal((m * n, m * n))
        rho = sk.density_matrix(m, n, clean.matrix + 3e-9 * (a - a.T) / np.linalg.norm(a - a.T))
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert range_space(rho)[0] == range_space(clean)[0] == scaled_eigvecs(rho).count
        report = sk.classify(rho, cfg)
        assert report.verdict is Verdict.SEPARABLE_CERTIFIED and report.search is None


def test_closed_form_routes_certify_low_rank_mixtures():
    """Completeness floor: every random mixture of rank below mn on 2x3,
    2x4, 3x3 and 3x4, two seeds each, under a one-iteration search budget,
    so that only the closed-form routes can certify.  The range route pins
    38 of these 54 (every rank up to 4, 5, 6 and 8 respectively), with at
    most one term per term of the mixture; before it, none certified.  The
    2x3 route of ppt_subtraction_decomposition adds the two 2x3 mixtures
    of 5 terms, which need 6 terms: one subtraction and 5 range products."""
    cfg = ClassifyConfig(search=SearchConfig(restarts=1, max_iters=1))
    certified = 0
    for m, n in [(2, 3), (2, 4), (3, 3), (3, 4)]:
        for terms, seed in itertools.product(range(2, m * n), range(2)):
            rho = sk.random_separable(m, n, terms, seed=seed)
            report = sk.classify(rho, cfg)
            if report.certificate is not None:
                assert report.search is None
                if range_space(rho)[0] == scaled_eigvecs(rho).count:  # the range route's
                    assert len(report.certificate.weights) <= terms
                else:
                    assert (m, n) == (2, 3)
                check_certificate(report.certificate, rho.matrix)
                certified += 1
    assert certified >= 40


def test_states_and_reports_compare_and_hash_by_identity():
    """Objects built twice from one input hold equal arrays, on which a
    generated __eq__ raised ValueError; states, reports and certificates
    compare and hash by identity instead, and np.array_equal compares
    their matrices."""
    first, second = (sk.classify(sk.werner_2x2(0.2)) for _ in range(2))
    built = [(sk.bell(), sk.bell()), (first, second), (first.certificate, second.certificate)]
    for a, b in built:
        assert a == a and a != b and a not in [b]
        assert hash(a) == hash(a) and len({a, b}) == 2
    assert np.array_equal(built[0][0].matrix, built[0][1].matrix)
