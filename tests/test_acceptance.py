"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 checks the built-in 2x4 state end to end.  The state has
positive partial transpose and is the separable b = 1 endpoint of
Horodecki's 2x4 family: the five-term mixture of fifth-root-of-unity
product states given in the `bound_2x4` docstring rebuilds it exactly.
So the criterion checks that closed-form decomposition, that the search
finds and checks a certificate of its own, and that classify certifies
the state.  Its name is kept from when the state was taken to be bound
entangled.
"""

import io

import numpy as np
import pytest

import sepkit as sk
from sepkit.cli import run_cli
from sepkit.criterion import pair_reports
from sepkit.decompose import (
    PolygonInfeasibleError,
    a_value,
    close_polygon,
    sign_matrix,
    single_pair_decomposition,
)
from sepkit.linalg import random_orthonormal_columns, scaled_eigvecs
from sepkit.pairs import pair_operators, pair_residual, tau_matrix
from sepkit.search import (
    SearchConfig,
    SeparableCertificate,
    check_certificate,
    joint_residual,
    minimize,
    residual_gradient,
)

DIMS_CYCLE = [(2, 2), (2, 3), (3, 2), (3, 3)]

TAU_GOLDEN = [
    {(2, 4): 0.125, (4, 2): 0.125, (3, 3): -0.25},
    {(2, 5): 0.125, (5, 2): 0.125, (3, 4): -0.125, (4, 3): -0.125},
    {(1, 2): 0.125, (2, 1): 0.125, (3, 5): -0.125, (5, 3): -0.125},
]

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


def _line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_eigenspectrum_golden():
    """Nonzero eigenvalues of the built-in 2x4 state are {1/8 x2, 1/4 x3}."""
    eigs = np.linalg.eigvalsh(sk.bound_2x4().matrix)
    nonzero = np.sort(eigs[eigs > 1e-12])
    err = np.max(np.abs(nonzero - np.array([0.125, 0.125, 0.25, 0.25, 0.25])))
    _line(1, nonzero.shape[0] == 5 and err <= 1e-12,
          f"5 nonzero eigenvalues, max deviation {err:.3e} (tol 1e-12)")


def test_criterion_02_tau_golden():
    """tau matrices in the reference gauge match the frozen entries."""
    x = scaled_eigvecs(sk.bound_2x4(), basis_override=sk.bound_2x4_basis())
    worst = 0.0
    for b, entries in zip(pair_operators(2, 4), TAU_GOLDEN):
        expected = np.zeros((5, 5), dtype=complex)
        for (i, j), val in entries.items():
            expected[i - 1, j - 1] = val
        worst = max(worst, float(np.max(np.abs(tau_matrix(x, b) - expected))))
    _line(2, worst <= 1e-12, f"entrywise deviation {worst:.3e} (tol 1e-12)")


def test_criterion_03_pair_values():
    """a^1 = 0 and a^2 = a^3 = -1/4, confirmed against the brute-force
    tau tau-conjugate spectrum."""
    x = scaled_eigvecs(sk.bound_2x4(), basis_override=sk.bound_2x4_basis())
    a_vals = []
    worst_oracle = 0.0
    for b in pair_operators(2, 4):
        tau = tau_matrix(x, b)
        lam_oracle = np.sort(np.sqrt(np.maximum(
            np.linalg.eigvalsh(tau @ tau.conj()).real, 0.0)))[::-1]
        a_vals.append(a_value(lam_oracle))
        reports = pair_reports(x, 2, 4)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(
            lam_oracle - reports[len(a_vals) - 1].lambdas))))
    errs = np.abs(np.array(a_vals) - np.array([0.0, -0.25, -0.25]))
    _line(3, float(np.max(errs)) <= 1e-12 and worst_oracle <= 1e-10,
          f"a = ({a_vals[0]:.3e}, {a_vals[1]:.6f}, {a_vals[2]:.6f}), "
          f"max deviation {float(np.max(errs)):.3e} (tol 1e-12)")


def test_criterion_04_bound_entanglement_behavior(tmp_path):
    """PPT stays nonnegative, and the state is separable: the docstring's
    closed-form mixture (|0> + w^i |1>) x (sum_j w^-ij |j>), w = exp(2 pi i/5),
    at weights 1/5 rebuilds it, the search returns a checked certificate
    with residual below 1e-20, and classify exits 0 certified."""
    rho = sk.bound_2x4()
    ppt_min = sk.ppt_min_eigenvalue(rho)

    w = np.exp(2j * np.pi / 5)
    closed_form = SeparableCertificate(
        m=2, n=4, weights=np.full(5, 0.2),
        alphas=np.array([[1, w**i] for i in range(5)]) / np.sqrt(2),
        betas=np.array([[w**(-i * j) for j in range(4)] for i in range(5)]) / 2)
    closed_err = float(np.linalg.norm(closed_form.density() - rho.matrix))
    check_certificate(closed_form, rho.matrix)
    assert closed_err <= 1e-12

    report = minimize(rho, SearchConfig(restarts=50, seed=0))
    assert report.certificate is not None, (
        f"no certificate, best_residual = {report.best_residual:.3e}")
    check_certificate(report.certificate, rho.matrix)
    search_err = float(np.linalg.norm(report.certificate.density() - rho.matrix))

    out, err = io.StringIO(), io.StringIO()
    path = tmp_path / "bound_2x4.txt"
    path.write_text(sk.serialize_state(rho))
    exit_code = run_cli(["classify", str(path)], out, err)

    ok = (ppt_min >= -1e-10
          and report.best_residual < 1e-20
          and exit_code == 0
          and "verdict: SeparableCertified" in out.getvalue())
    _line(4, ok,
          f"ppt_min = {ppt_min:.3e} (tol -1e-10); "
          f"closed-form reconstruction error {closed_err:.3e} (tol 1e-12); "
          f"best_residual = {report.best_residual:.3e} (tol 1e-20), "
          f"search certificate reconstruction error {search_err:.3e}; "
          f"classify exit = {exit_code} (expected 0, SeparableCertified)")


def test_criterion_05_2x2_sign_equivalence():
    """On 1000 random 2x2 states the signs of a^1 and -(PPT minimum)
    agree outside a 1e-9 band."""
    band = 1e-9
    disagreements = 0
    checked = 0
    for i in range(1000):
        rho = sk.random_density(2, 2, rank=(i % 4) + 1, seed=10_000 + i)
        a1 = pair_reports(scaled_eigvecs(rho), 2, 2)[0].a_value
        neg_ppt = -sk.ppt_min_eigenvalue(rho)
        if abs(a1) <= band or abs(neg_ppt) <= band:
            continue
        checked += 1
        if (a1 > 0) != (neg_ppt > 0):
            disagreements += 1
    _line(5, disagreements == 0 and checked > 900,
          f"{checked} states outside the band, {disagreements} sign disagreements")


def test_criterion_06_necessity_on_separable_states():
    """Every pair value of 500 random separable mixtures is <= 1e-9."""
    worst = -np.inf
    for i in range(500):
        m, n = DIMS_CYCLE[i % 4]
        rho = sk.random_separable(m, n, terms=m * n + 2, seed=20_000 + i)
        reports = pair_reports(scaled_eigvecs(rho), m, n)
        worst = max(worst, max(rep.a_value for rep in reports))
    _line(6, worst <= 1e-9, f"largest a value {worst:.3e} (tol 1e-9)")


def test_criterion_07_single_pair_construction():
    """For 200 random states, every pair at or below the boundary admits an
    ensemble reassembling rho and annihilating that pair, and the sign
    matrices match their printed forms."""
    sign_ok = (np.array_equal(sign_matrix(1, 4), SIGN_4)
               and np.array_equal(sign_matrix(2, 8), SIGN_8)
               and np.array_equal(sign_matrix(2, 5), SIGN_8[:, :5]))
    worst_recon = 0.0
    worst_resid = 0.0
    built = 0
    for i in range(200):
        m, n = DIMS_CYCLE[i % 4]
        rho = sk.random_density(m, n, seed=30_000 + i)
        x = scaled_eigvecs(rho)
        reports = pair_reports(x, m, n)
        for b, rep in zip(pair_operators(m, n), reports):
            if rep.a_value > 0:
                continue
            ens = single_pair_decomposition(rho, b.pair)
            recon = np.einsum("ia,ib->ab", ens, ens.conj())
            worst_recon = max(worst_recon,
                              float(np.linalg.norm(recon - rho.matrix)))
            worst_resid = max(worst_resid,
                              max(abs(pair_residual(b, z)) for z in ens))
            built += 1
    _line(7, sign_ok and built > 100 and worst_recon <= 1e-10 and worst_resid <= 1e-10,
          f"{built} ensembles, worst reconstruction {worst_recon:.3e}, "
          f"worst pair residual {worst_resid:.3e} (tol 1e-10); "
          f"sign matrices {'match' if sign_ok else 'differ'}")


def test_criterion_08_polygon_closure():
    """1000 feasible length sets close to 1e-12 relative; infeasible sets
    raise."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(1000):
        size = int(rng.integers(1, 9))
        lengths = rng.uniform(0.0, 1.0, size=size)
        if trial % 3 == 0 and size > 2:
            lengths[2:] *= 1e-12
        if size == 1:
            lengths[:] = 0.0
        elif lengths.max() > lengths.sum() - lengths.max():
            lengths = np.full(size, lengths.max())
        phases = close_polygon(lengths)
        total = lengths.sum()
        if total > 0:
            worst = max(worst, abs(np.sum(lengths * np.exp(1j * phases))) / total)
    rejected = 0
    for trial in range(50):
        lengths = rng.uniform(0.1, 1.0, size=4)
        lengths[0] = 1.5 * lengths[1:].sum()
        try:
            close_polygon(lengths)
        except PolygonInfeasibleError:
            rejected += 1
    _line(8, worst <= 1e-12 and rejected == 50,
          f"worst relative closure {worst:.3e} (tol 1e-12), "
          f"{rejected}/50 infeasible sets rejected")


def test_criterion_09_search_completeness():
    """100 known-separable 2x2 states all come back certified within 1e-8,
    100 NPT states are all flagged entangled, and the verdict flips across
    the Werner threshold."""
    sep_failures = []
    count = 0
    seed = 0
    while count < 100:
        if count % 2 == 0:
            rho = sk.werner_2x2((count / 100) * (1 / 3 - 1e-2))
        else:
            rho = sk.random_density(2, 2, rank=(seed % 3) + 1, seed=40_000 + seed)
            seed += 1
            if sk.ppt_min_eigenvalue(rho) <= 1e-9:
                continue
        report = sk.classify(rho)
        err = (np.linalg.norm(report.certificate.density() - rho.matrix)
               if report.certificate is not None else np.inf)
        if report.verdict is not sk.Verdict.SEPARABLE_CERTIFIED or err > 1e-8:
            sep_failures.append((count, report.verdict, err))
        count += 1

    npt_false_separable = 0
    count = 0
    seed = 0
    while count < 100:
        rho = sk.random_density(2, 2, rank=(seed % 3) + 1, seed=50_000 + seed)
        seed += 1
        if sk.ppt_min_eigenvalue(rho) >= -1e-9:
            continue
        report = sk.classify(rho)
        if report.verdict is sk.Verdict.SEPARABLE_CERTIFIED:
            npt_false_separable += 1
        count += 1

    below = sk.classify(sk.werner_2x2(1 / 3 - 1e-3)).verdict
    above = sk.classify(sk.werner_2x2(1 / 3 + 1e-3)).verdict
    flip_ok = (below is sk.Verdict.SEPARABLE_CERTIFIED
               and above in (sk.Verdict.ENTANGLED_BY_PAIR_CRITERION,
                             sk.Verdict.ENTANGLED_BY_PPT))
    _line(9, not sep_failures and npt_false_separable == 0 and flip_ok,
          f"separable: {100 - len(sep_failures)}/100 certified; "
          f"NPT: {npt_false_separable} false separability claims; "
          f"threshold flip {below.value} -> {above.value}")


def test_criterion_10_gradient_check():
    """Central finite differences reproduce the gradient to relative 1e-6
    at 50 random points."""
    eps = 1e-7
    rng = np.random.default_rng(123)
    worst = 0.0
    probes = 0
    for case in range(10):
        m, n = [(2, 2), (2, 3)][case % 2]
        rho = sk.random_density(m, n, seed=60_000 + case)
        x = scaled_eigvecs(rho)
        taus = np.stack([tau_matrix(x, b) for b in pair_operators(m, n)])
        u = random_orthonormal_columns(x.count + 1, x.count, seed=case)
        g = residual_gradient(u, taus)
        for _ in range(5):
            d = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
            d /= np.linalg.norm(d)
            fd = (joint_residual(u + eps * d, taus)
                  - joint_residual(u - eps * d, taus)) / (2 * eps)
            analytic = float(np.vdot(d, g).real)
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12)
            worst = max(worst, rel)
            probes += 1
    _line(10, probes == 50 and worst <= 1e-6,
          f"{probes} probes, worst relative error {worst:.3e} (tol 1e-6)")
