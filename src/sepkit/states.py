"""Bipartite density matrices: validated container, state zoo, file format,
the partial transpose, and every tolerance of sepkit's decisions.

The text format is line-oriented: a header ``dims m n`` followed by
mn rows of mn whitespace-separated ``re,im`` entries, each number
printed with 17 significant digits so that parse(serialize(rho))
round-trips bit for bit.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RANK_TOL",
    "RANGE_MARGIN",
    "BOUNDARY_TOL",
    "PRODUCT_TOL",
    "RECON_TOL",
    "DensityMatrix",
    "StateFormatError",
    "density_matrix",
    "partial_transpose",
    "bound_2x4",
    "bound_2x4_basis",
    "horodecki_2x4",
    "tiles",
    "werner_2x2",
    "bell",
    "product",
    "isotropic",
    "random_density",
    "random_separable",
    "parse_state",
    "serialize_state",
]


class StateFormatError(ValueError):
    """Malformed state file; the message carries the offending line number."""


# The tolerances of sepkit's decisions, each defined once:
STATE_TOL = 1e-8      # Hermiticity and trace tolerance of every state
BOUNDARY_TOL = 1e-9   # eigenvalues >= -it; a > it, or a PT eigenvalue < -it, proves entanglement
RANK_TOL = 1e-10      # an eigenvalue of rho or a lambda at or below it is zero
# dim V < l rules out every decomposition (decompose.range_space) only
# when l^2 - l + 1 singular values of the null-space system exceed
# RANGE_MARGIN, and rho^G's kernel eigenvalues are at most RANGE_MARGIN^2
# times rho's least eigenvalue.  On separable states with an eigenvalue
# near RANK_TOL the count at RANK_TOL often reads l - 1: with a clear
# kernel the singular values that should vanish read up to 7e-7.
RANGE_MARGIN = RANK_TOL ** 0.5
PRODUCT_TOL = 1e-6    # a member is a product when s2 <= PRODUCT_TOL * s1
RECON_TOL = 1e-8      # a mixture rebuilds rho when ||mixture - rho||_F <= it


def _check_dims(m: int, n: int) -> None:
    try:
        if operator.index(m) < 1 or operator.index(n) < 1:
            raise ValueError(f"dims must be positive, got ({m}, {n})")
    except TypeError:
        raise ValueError(f"dims must be integers, got ({m!r}, {n!r})") from None


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive.

    The phase is conj(p) / hypot(p): the modulus of a complex scalar is
    hypot (the array np.abs can differ in the last bit), and dividing by
    it as a complex keeps the signed zeros, so the columns equal a
    per-column conj(p) / abs(p) bit for bit.  A zero column is left alone.
    """
    p = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.where(p != 0, p.conj() / np.hypot(p.real, p.imag), 1.0)
    return v * phase


@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite state: dims (m, n) and the mn x mn matrix, first factor m-dimensional.

    Valid by construction, else ValueError: the matrix is finite, Hermitian
    and of unit trace within STATE_TOL, with no eigenvalue below -BOUNDARY_TOL.
    ``matrix`` is the read-only Hermitian part (M + M^H)/2 of the input M,
    so every reader sees one Hermitian matrix (the input itself when it is
    exactly Hermitian).  Validation keeps its eigendecomposition as the
    read-only basis that linalg.scaled_eigvecs reads: the eigenvalues t
    above RANK_TOL, descending, and rows sqrt(t_i) e_i, with the largest
    component of each unit eigenvector e_i made real positive.
    decompose.range_space fills the private _range slot on its first call,
    so the range space is computed once per state.
    """

    m: int
    n: int
    matrix: np.ndarray
    _basis: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _range: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_dims(self.m, self.n)
        mat = np.array(self.matrix, dtype=complex)
        d = self.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims ({self.m}, {self.n})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains non-finite entries")
        if np.linalg.norm(mat - mat.conj().T) > STATE_TOL * (1.0 + np.linalg.norm(mat)):
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > STATE_TOL or abs(np.trace(mat).imag) > STATE_TOL:
            raise ValueError(f"trace is {np.trace(mat):.6g}, expected 1")
        mat = (mat + mat.conj().T) / 2
        w, v = np.linalg.eigh(mat)
        if w[0] < -BOUNDARY_TOL:
            raise ValueError(f"matrix has an eigenvalue below -{BOUNDARY_TOL:g}")
        # Ascending, so the eigenvalues above RANK_TOL are the last ones.
        zero = int(np.count_nonzero(w <= RANK_TOL))
        t = w[zero:][::-1]
        x = _fix_column_phases(v[:, zero:][:, ::-1]) * np.sqrt(t)
        for a in (mat, w, t, x):
            a.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_basis", (x.T, t))

    @property
    def dim(self) -> int:
        return self.m * self.n


def density_matrix(m: int, n: int, matrix) -> DensityMatrix:
    """Validate and wrap a density matrix; DensityMatrix states the checks."""
    return DensityMatrix(m=m, n=n, matrix=matrix)


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the second factor: entry ((a,mu),(b,nu)) becomes ((a,nu),(b,mu)).

    Transposing the first factor gives the full transpose, with the same spectrum.
    """
    r = rho.matrix.reshape(rho.m, rho.n, rho.m, rho.n)
    return r.transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim)


def bound_2x4() -> DensityMatrix:
    """The rank-5 PPT state on a 2x4 system used throughout the tests: horodecki_2x4(1).

    Entries are 0 or 1/8, nonzero eigenvalues {1/4, 1/4, 1/4, 1/8, 1/8},
    positive partial transpose.  Often quoted as bound entangled (hence
    the name), but it is the separable endpoint of that family: mixing
    the five states (|0> + w^i |1>) x (|0> + w^-i |1> + w^-2i |2> +
    w^-3i |3>) with w = exp(2 pi i / 5) at equal weights reproduces it
    exactly, and classify finds such a decomposition.
    """
    return horodecki_2x4(1.0)


def bound_2x4_basis() -> np.ndarray:
    """Canonical reference eigenbasis for bound_2x4, rows scaled to sqrt(eigenvalue).

    The 1/4 eigenspace of bound_2x4 is degenerate, so per-pair spectral
    matrices depend on the basis gauge; this fixed basis pins them down.
    """
    s = np.sqrt(1.0 / 8.0)
    x = np.zeros((5, 8))
    x[0, 3] = s
    x[1, 4] = s
    x[2, 0] = s
    x[2, 5] = s
    x[3, 1] = s
    x[3, 6] = s
    x[4, 2] = s
    x[4, 7] = s
    return x.astype(complex)


def horodecki_2x4(b: float) -> DensityMatrix:
    """Horodecki's 2x4 family rho_b, with positive partial transpose for 0 <= b <= 1.

    Entangled for 0 < b < 1, yet every pair a-value is <= 0 and the
    partial transpose is positive, so neither entanglement test detects it
    (bound entanglement; P. Horodecki, Phys. Lett. A 232, 333 (1997)).
    rho_0 is a pure product state and rho_1 is bound_2x4, entry for entry.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    mat = np.zeros((8, 8))
    for i in range(3):
        mat[i, i] = mat[i, i + 5] = mat[i + 5, i] = mat[i + 5, i + 5] = b
    mat[3, 3] = b
    mat[4, 4] = mat[7, 7] = (1.0 + b) / 2.0
    mat[4, 7] = mat[7, 4] = np.sqrt(1.0 - b * b) / 2.0
    return DensityMatrix(m=2, n=4, matrix=mat.astype(complex) / (7.0 * b + 1.0))


def tiles() -> DensityMatrix:
    """Bound-entangled 3x3 state from the Tiles unextendible product basis.

    The five product vectors |0>(|0>-|1>), (|0>-|1>)|2>, |2>(|1>-|2>),
    (|1>-|2>)|0> and (|0>+|1>+|2>)(|0>+|1>+|2>), normalized, have no
    product vector orthogonal to them all (Bennett et al., PRL 82, 5385
    (1999)), so the normalized rank-4 projector onto their orthogonal
    complement is entangled although its partial transpose is positive.
    """
    e = np.eye(3)
    minus = [(e[0] - e[1]) / np.sqrt(2.0), (e[1] - e[2]) / np.sqrt(2.0)]
    plus = e.sum(axis=0) / np.sqrt(3.0)
    upb = np.array([np.kron(e[0], minus[0]), np.kron(minus[0], e[2]),
                    np.kron(e[2], minus[1]), np.kron(minus[1], e[0]),
                    np.kron(plus, plus)])
    return DensityMatrix(m=3, n=3, matrix=(np.eye(9) - upb.T @ upb).astype(complex) / 4.0)


def bell() -> DensityMatrix:
    """|phi+><phi+| with |phi+> = (|00> + |11>)/sqrt(2) on 2x2."""
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(m=2, n=2, matrix=np.outer(v, v.conj()))


def werner_2x2(p: float) -> DensityMatrix:
    """p |psi-><psi-| + (1-p) I/4 with the singlet |psi-> = (|01> - |10>)/sqrt(2).

    Positive partial transpose (and separable) exactly for p <= 1/3.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    mat = p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(m=2, n=2, matrix=mat)


def isotropic(d: int, fidelity: float) -> DensityMatrix:
    """Isotropic state on d x d: fidelity F on |phi+>, the rest spread uniformly."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    phi = np.eye(d).reshape(-1).astype(complex) / np.sqrt(d)
    proj = np.outer(phi, phi.conj())
    mat = fidelity * proj + (1.0 - fidelity) * (np.eye(d * d) - proj) / (d * d - 1)
    return DensityMatrix(m=d, n=d, matrix=mat)


def product(rho_a, rho_b) -> DensityMatrix:
    """Kronecker product of two single-factor density matrices."""
    a = np.asarray(rho_a, dtype=complex)
    b = np.asarray(rho_b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("factors must be square matrices")
    return density_matrix(a.shape[0], b.shape[0], np.kron(a, b))


def random_density(m: int, n: int, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """Seeded random state: G G^dag normalized to unit trace, G complex Gaussian mn x rank."""
    _check_dims(m, n)
    d = m * n
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(m=m, n=n, matrix=mat)


def random_separable(m: int, n: int, terms: int, seed: int) -> DensityMatrix:
    """Seeded random mixture of product pure states (Dirichlet weights)."""
    _check_dims(m, n)
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    mat = np.zeros((m * n, m * n), dtype=complex)
    for w in weights:
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        beta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        alpha /= np.linalg.norm(alpha)
        beta /= np.linalg.norm(beta)
        psi = np.kron(alpha, beta)
        mat += w * np.outer(psi, psi.conj())
    return DensityMatrix(m=m, n=n, matrix=mat)


def format_float(x: float) -> str:
    """17-significant-digit decimal, enough for exact float64 round trips."""
    return f"{x:.17g}"


def serialize_state(rho: DensityMatrix) -> str:
    """Render a state in the line-oriented text format."""
    lines = [f"dims {rho.m} {rho.n}"]
    for row in rho.matrix:
        lines.append(" ".join(f"{format_float(z.real)},{format_float(z.imag)}" for z in row))
    return "\n".join(lines) + "\n"


def _parse_entry(token: str, lineno: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise StateFormatError(f"line {lineno}: expected 're,im', got {token!r}")
    try:
        re, im = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise StateFormatError(f"line {lineno}: bad number in {token!r}") from exc
    if not (np.isfinite(re) and np.isfinite(im)):
        raise StateFormatError(f"line {lineno}: non-finite entry {token!r}")
    return complex(re, im)


def _parse_body(rows: list[str], d: int) -> np.ndarray | None:
    """The d x d matrix of well-formed rows, converted in one numpy call; else None.

    Each row must split into d tokens.  With the commas spaced out, the
    body must give 3 d^2 pieces, of which every third, from the second, is
    dropped and the rest must convert to numbers.  A token with no comma or
    two commas cannot pass: the count then needs more than d^2 commas, or
    two 2 apart, and either leaves one where a number belongs.  Any
    malformed or non-finite entry yields None, and the caller's per-token
    pass names it.
    """
    if list(map(len, map(str.split, rows))) != [d] * d:
        return None
    pieces = " ".join(rows).replace(",", " , ").split()
    if len(pieces) != 3 * d * d:
        return None
    del pieces[1::3]
    try:
        parts = np.array(pieces, dtype=float)
    except ValueError:
        return None
    return parts.view(complex).reshape(d, d) if np.isfinite(parts).all() else None


def parse_state(text: str) -> DensityMatrix:
    """Parse the text format; errors carry 1-based line numbers.

    The payload must be a valid DensityMatrix: Hermitian and of unit
    trace within STATE_TOL, with no eigenvalue below -BOUNDARY_TOL.
    """
    lines = text.splitlines()
    if not lines:
        raise StateFormatError("line 1: empty input, expected 'dims m n' header")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "dims":
        raise StateFormatError(f"line 1: expected 'dims m n', got {lines[0]!r}")
    try:
        m, n = int(header[1]), int(header[2])
    except ValueError as exc:
        raise StateFormatError(f"line 1: non-integer dims in {lines[0]!r}") from exc
    if m < 1 or n < 1:
        raise StateFormatError(f"line 1: dims must be positive, got ({m}, {n})")
    d = m * n
    if len(lines) < 1 + d:
        raise StateFormatError(f"line {len(lines) + 1}: expected {d} matrix rows, found {len(lines) - 1}")
    for extra in range(1 + d, len(lines)):
        if lines[extra].strip():
            raise StateFormatError(f"line {extra + 1}: unexpected content after matrix rows")
    rows = lines[1:1 + d]
    mat = _parse_body(rows, d)
    if mat is None:
        mat = np.zeros((d, d), dtype=complex)
        for i, row in enumerate(rows):
            tokens = row.split()
            if len(tokens) != d:
                raise StateFormatError(f"line {i + 2}: expected {d} entries, got {len(tokens)}")
            mat[i] = [_parse_entry(token, i + 2) for token in tokens]
    try:
        return density_matrix(m, n, mat)
    except ValueError as exc:
        raise StateFormatError(f"lines 2-{d + 1}: invalid density matrix: {exc}") from exc
