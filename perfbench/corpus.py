"""Seeded workload corpora with known answers, built without sepkit.

Every state is generated here with plain numpy and serialized in
sepkit's text format (header ``dims m n``, then mn rows of ``re,im``
entries at 17 significant digits, which round-trips float64 exactly).
sepkit only ever sees the serialized text, so a change to sepkit's own
state zoo cannot change the benchmark's inputs.

The closed-form PPT-entangled states used by the ``exhaust`` workload
live here too: the Horodecki 2x4 family rho_b (P. Horodecki, Phys. Lett.
A 232, 333 (1997)) and the Tiles UPB state (Bennett et al., PRL 82, 5385
(1999)).
"""

from dataclasses import dataclass

import numpy as np

SEPARABLE = "separable"
ENTANGLED = "entangled"


@dataclass(frozen=True)
class Case:
    """One benchmark input: its family, dims, serialized text and known answer."""

    family: str
    m: int
    n: int
    matrix: np.ndarray
    known: str
    text: str


def serialize(m: int, n: int, mat: np.ndarray) -> str:
    lines = [f"dims {m} {n}"]
    for row in mat:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def _case(family: str, m: int, n: int, mat: np.ndarray, known: str) -> Case:
    mat = (mat + mat.conj().T) / 2.0
    mat = mat / np.trace(mat).real
    return Case(family, m, n, mat, known, serialize(m, n, mat))


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def ppt_min(mat: np.ndarray, m: int, n: int) -> float:
    """Smallest eigenvalue of the partial transpose on the second factor."""
    pt = mat.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)
    return float(np.linalg.eigvalsh(pt)[0])


# --- families with a closed-form known answer -------------------------------

def pure(rng, m, n) -> Case:
    """A Haar-random pure state: entangled, since its Schmidt rank exceeds 1 almost surely."""
    return _case("pure", m, n, _proj(_unit(rng, m * n)), ENTANGLED)


def noisy_pure(rng, m, n) -> Case:
    """(1 - e) |psi><psi| + e I/d below the PPT threshold, so NPT by construction.

    The partial transpose of |psi><psi| has smallest eigenvalue -s1 s2
    (the two largest Schmidt coefficients), so the mixture is NPT exactly
    for e < e* = s1 s2 d / (1 + s1 s2 d); e is drawn from [0.2, 0.8] e*.
    """
    d = m * n
    psi = _unit(rng, d)
    s = np.linalg.svd(psi.reshape(m, n), compute_uv=False)
    x = s[0] * s[1] * d
    e = rng.uniform(0.2, 0.8) * x / (1.0 + x)
    return _case("noisy_pure", m, n, (1 - e) * _proj(psi) + e * np.eye(d) / d, ENTANGLED)


def isotropic(rng, d) -> Case:
    """Isotropic state with fidelity F > 1/d (entangled, NPT)."""
    f = 1.0 / d + rng.uniform(0.2, 1.0) * (1.0 - 1.0 / d)
    phi = np.eye(d).reshape(-1).astype(complex) / np.sqrt(d)
    p = _proj(phi)
    mat = f * p + (1.0 - f) * (np.eye(d * d) - p) / (d * d - 1)
    return _case("isotropic", d, d, mat, ENTANGLED)


def werner(rng, separable: bool) -> Case:
    """2x2 Werner state p |psi-><psi-| + (1-p) I/4, separable exactly for p <= 1/3.

    p is drawn away from 1/3 on the requested side so that no state sits
    on the boundary tolerance.
    """
    if separable:
        p, known = rng.uniform(0.0, 0.3), SEPARABLE
    else:
        p, known = rng.uniform(0.37, 1.0), ENTANGLED
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return _case("werner", 2, 2, p * _proj(singlet) + (1 - p) * np.eye(4) / 4, known)


def separable_mixture(rng, m, n, terms) -> Case:
    """Dirichlet-weighted mixture of `terms` random product pure states."""
    weights = rng.dirichlet(np.ones(terms))
    mat = np.zeros((m * n, m * n), dtype=complex)
    for w in weights:
        mat += w * _proj(np.kron(_unit(rng, m), _unit(rng, n)))
    return _case("separable", m, n, mat, SEPARABLE)


# --- closed-form PPT states ------------------------------------------------

def horodecki_2x4(b: float) -> np.ndarray:
    """Horodecki's 2x4 family rho_b: PPT for 0 <= b <= 1, entangled for 0 < b < 1.

    At b = 1 it is separable and equals sepkit's built-in ``bound_2x4``.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    mat = np.zeros((8, 8))
    for i in range(3):
        mat[i, i] = mat[i + 5, i + 5] = b
        mat[i, i + 5] = mat[i + 5, i] = b
    mat[3, 3] = b
    mat[4, 4] = mat[7, 7] = (1 + b) / 2
    mat[4, 7] = mat[7, 4] = np.sqrt(1 - b * b) / 2
    return mat.astype(complex) / (7 * b + 1)


def tiles_upb() -> np.ndarray:
    """The five Tiles UPB vectors on 3x3, one per row."""
    e = np.eye(3)
    r2 = np.sqrt(2.0)
    return np.array([
        np.kron(e[0], (e[0] - e[1]) / r2),
        np.kron((e[0] - e[1]) / r2, e[2]),
        np.kron(e[2], (e[1] - e[2]) / r2),
        np.kron((e[1] - e[2]) / r2, e[0]),
        np.kron(e.sum(0) / np.sqrt(3), e.sum(0) / np.sqrt(3)),
    ], dtype=complex)


def tiles() -> np.ndarray:
    """Tiles bound-entangled state: the normalized projector orthogonal to the UPB."""
    v = tiles_upb()
    return (np.eye(9) - v.T @ v.conj()) / 4.0


def self_check(bound_2x4: np.ndarray, bs) -> list[str]:
    """Problems with the closed-form constructors; empty when all hold.

    rho_1 must equal sepkit's bound_2x4 entry for entry, every rho_b and
    Tiles must be PPT (partial-transpose minimum >= -1e-12), and Tiles
    must have rank 4 and annihilate its five UPB vectors.
    """
    problems = []
    if not np.array_equal(horodecki_2x4(1.0), bound_2x4):
        problems.append("horodecki_2x4(1) differs from bound_2x4")
    for b in bs:
        if ppt_min(horodecki_2x4(b), 2, 4) < -1e-12:
            problems.append(f"horodecki_2x4({b}) is not PPT")
    t = tiles()
    if ppt_min(t, 3, 3) < -1e-12:
        problems.append("tiles is not PPT")
    if np.linalg.matrix_rank(t, tol=1e-10) != 4:
        problems.append("tiles does not have rank 4")
    if np.max(np.abs(t @ tiles_upb().T)) > 1e-12:
        problems.append("tiles is not orthogonal to its UPB")
    return problems


# --- workloads ---------------------------------------------------------------

SMALL_DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
CERTIFY_DIMS = [(2, 3), (3, 3), (2, 4), (3, 4)]


def screen(seed: int) -> list[Case]:
    """1000 states decided without the search: 950 small (2x2 to 4x4), 30 at 6x6, 20 at 8x8.

    A thousand states leave ten beyond the 99th percentile, which falls
    inside the 8x8 group (the top 2%) rather than on a group boundary.
    """
    rng = np.random.default_rng([seed, 1])
    cases = []
    for i in range(180):
        cases.append(pure(rng, *SMALL_DIMS[i % 6]))
        cases.append(noisy_pure(rng, *SMALL_DIMS[i % 6]))
    for i in range(180):
        cases.append(isotropic(rng, 2 + i % 3))
        cases.append(werner(rng, separable=i % 2 == 0))
    for i in range(230):
        cases.append(separable_mixture(rng, 2, 2, 2 + i % 5))
    for d, count in ((6, 30), (8, 20)):
        for i in range(count):
            cases.append(noisy_pure(rng, d, d) if i % 2 else isotropic(rng, d))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def certify(seed: int) -> list[Case]:
    """Separable mixtures at 2x3, 3x3, 2x4 and 3x4, plus bound_2x4: 101 states.

    Per dims: twelve of rank 2 (certified within the budget about nine
    times in ten), one of rank 3 (about one in four), and full-rank
    mixtures of mn and mn + 2 terms (never certified at this budget, and
    each costing the same whole budget whatever the seed).  The 48 rank-2
    states keep certified_frac steady from seed to seed.  About 44 states
    are certified, all faster than any full-rank one, and the 16 full-rank
    2x3 states are the cheapest failures, so the median falls inside that
    group for any certified count from 35 to 50.  The 8 full-rank 3x4
    states are among the dearest, so the 99th percentile falls among them.
    """
    rng = np.random.default_rng([seed, 2])
    cases = []
    for (m, n), full in zip(CERTIFY_DIMS, (8, 2, 10, 4)):
        for terms, count in ((2, 12), (3, 1), (m * n, full), (m * n + 2, full)):
            cases += [separable_mixture(rng, m, n, terms) for _ in range(count)]
    mat = horodecki_2x4(1.0)
    cases.append(Case("bound_2x4", 2, 4, mat, SEPARABLE, serialize(2, 4, mat)))
    return cases


def exhaust_bs(seed: int) -> np.ndarray:
    """The nine Horodecki parameters b of a seed, drawn from [0.1, 0.9] and sorted."""
    return np.sort(np.random.default_rng([seed, 3]).uniform(0.1, 0.9, size=9))


def exhaust(seed: int) -> list[Case]:
    """Horodecki rho_b for the seed's nine b, plus Tiles: all PPT and entangled."""
    cases = []
    for b in exhaust_bs(seed):
        mat = horodecki_2x4(float(b))
        cases.append(Case(f"horodecki_b{b:.3f}", 2, 4, mat, ENTANGLED, serialize(2, 4, mat)))
    mat = tiles()
    cases.append(Case("tiles", 3, 3, mat, ENTANGLED, serialize(3, 3, mat)))
    return cases


WORKLOADS = {"screen": screen, "certify": certify, "exhaust": exhaust}
