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
from sepkit.linalg import hermitian_eig, scaled_eigvecs, singular_values
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


def test_pair_layout_is_built_once_and_read_only():
    """pair_reports' operators, gather rows and sign blocks depend only on
    (m, n): one read-only copy per shape."""
    pairs, rows, sign = sk.criterion._pair_layout(3, 4)
    assert sk.criterion._pair_layout(3, 4)[1] is rows
    assert list(pairs) == sk.enumerate_pairs(3, 4)
    assert rows.shape == (6, 4) and sign.shape == (6, 4, 4)
    for arr in (rows, sign):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


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
        assert a_value(lam, lp) == pytest.approx(a, abs=1e-13)


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
        assert abs(rep.a_value - a_value(lam, l_prime)) <= 1e-13


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
    """The batched a-values sum the trailing lambdas in a_value's order."""
    cases = [sk.bound_2x4(), sk.tiles(), sk.bell(), sk.werner_2x2(0.2)]
    cases += [sk.random_density(m, n, rank=rank, seed=m + n)
              for m, n in [(2, 2), (2, 3), (3, 4), (8, 8)] for rank in (1, 2, 3, None)]
    for rho in cases:
        for rep in pair_reports(scaled_eigvecs(rho), rho.m, rho.n):
            assert rep.a_value == a_value(rep.lambdas, rep.l_prime)


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


def test_a_value_cases():
    assert a_value(np.array([0.25, 0.125, 0.125, 0.0, 0.0]), 3) == pytest.approx(0.0)
    assert a_value(np.array([0.7, 0.0]), 1) == pytest.approx(0.7)
    assert a_value(np.array([0.5, 0.2, 0.2]), 3) == pytest.approx(0.1)
    assert a_value(np.array([0.0]), 0) == 0.0


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
    # The tolerance is PRODUCT_TOL, the one certificates use.
    near = np.kron([1, 0], [1, 0]) + 1e-7 * np.kron([0, 1], [0, 1])
    assert sk.pure_product_check(near, 2, 2)
    assert sk.certificate_from_members(near[None, :], 2, 2).weights.shape == (1,)


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


@pytest.mark.parametrize("rho, search", [
    (sk.random_separable(2, 3, 8, seed=1), (24, 4, 800, 0)),
    (sk.bound_2x4(), (5, 1, 74, 0)),
    (sk.horodecki_2x4(0.5), (0, 0, 0, 0)),
    (sk.tiles(), (0, 0, 0, 0)),
], ids=["full_rank", "bound_2x4", "horodecki_b0.5", "tiles"])
def test_classify_falls_through_to_the_search(rho, search):
    """Where range_decomposition refuses a state (see test_decompose),
    classify reports exactly the search a direct minimize call runs: the
    same k, restarts, iterations and rejections.  The PPT-entangled states
    have dim V = 1 below their rank, so no size is walked."""
    cfg = SearchConfig(restarts=1, max_iters=200)
    found = sk.classify(rho, ClassifyConfig(search=cfg)).search
    assert (found.k, found.restarts_used, found.iterations_used,
            found.rejected_extractions) == search
    alone = minimize(rho, cfg)
    assert found.best_residual == alone.best_residual
    assert found.best_u.tobytes() == alone.best_u.tobytes()


@pytest.mark.parametrize("make", [sk.tiles, sk.bound_2x4], ids=["tiles", "bound_2x4"])
def test_classify_computes_the_range_space_once(monkeypatch, make):
    """range_decomposition refuses both states (dim V = 1 and 9, against
    ranks 4 and 5) and the search reads dim V again; rho^G's eigh and the
    null-space SVD still run once per state."""
    calls, real = [], sk.decompose._solve_range

    def spy(rho):
        calls.append(rho)
        return real(rho)

    monkeypatch.setattr(sk.decompose, "_solve_range", spy)
    report = sk.classify(make(), ClassifyConfig(search=SearchConfig(restarts=1, max_iters=200)))
    assert report.search is not None
    assert len(calls) == 1


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
    38 of these 54 (every rank up to 4, 5, 6 and 8 respectively); before
    it, none certified."""
    cfg = ClassifyConfig(search=SearchConfig(restarts=1, max_iters=1))
    certified = 0
    for m, n in [(2, 3), (2, 4), (3, 3), (3, 4)]:
        for terms, seed in itertools.product(range(2, m * n), range(2)):
            rho = sk.random_separable(m, n, terms, seed=seed)
            report = sk.classify(rho, cfg)
            if report.certificate is not None:
                assert report.search is None
                assert len(report.certificate.weights) <= terms
                check_certificate(report.certificate, rho.matrix)
                certified += 1
    assert certified >= 38
