"""Tests for the state zoo and the text serialization format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepkit as sk
from sepkit.states import format_float

# Rows of the rank-5 2x4 state, as 1-based columns holding 1/8 (all other
# entries are zero and the matrix is real).
BOUND_2X4_PATTERN = {
    1: [1, 6], 2: [2, 7], 3: [3, 8], 4: [4],
    5: [5], 6: [1, 6], 7: [2, 7], 8: [3, 8],
}


def _assert_valid_density(rho, m, n):
    assert rho.m == m and rho.n == n
    mat = rho.matrix
    assert mat.shape == (m * n, m * n)
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-10)
    assert np.trace(mat).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(mat)[0] >= -1e-10


def test_bound_2x4_matrix():
    """Every entry is 0 or 1/8, in the frozen pattern, with spectrum
    {1/4 x3, 1/8 x2, 0 x3}."""
    rho = sk.bound_2x4()
    _assert_valid_density(rho, 2, 4)
    mat = rho.matrix
    assert np.max(np.abs(mat.imag)) == 0
    expected = np.zeros((8, 8))
    for i, cols in BOUND_2X4_PATTERN.items():
        for j in cols:
            expected[i - 1, j - 1] = 0.125
    np.testing.assert_array_equal(mat.real, expected)
    eigs = np.linalg.eigvalsh(mat)[::-1]
    np.testing.assert_allclose(eigs, [0.25, 0.25, 0.25, 0.125, 0.125, 0, 0, 0],
                               atol=1e-14)
    assert sk.ppt_min_eigenvalue(rho) == pytest.approx(0.0, abs=1e-13)


def test_bound_2x4_basis_is_scaled_eigenbasis():
    """Rows are orthogonal with squared norms equal to the eigenvalues and
    their outer products sum back to the state."""
    rho = sk.bound_2x4()
    basis = sk.bound_2x4_basis()
    assert basis.shape == (5, 8)
    gram = basis.conj() @ basis.T
    np.testing.assert_allclose(np.diag(gram).real, [0.125, 0.125, 0.25, 0.25, 0.25],
                               atol=1e-14)
    np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-14)
    recon = np.einsum("ia,ib->ab", basis, basis.conj())
    np.testing.assert_allclose(recon, rho.matrix, atol=1e-14)


def test_horodecki_2x4_family():
    """rho_1 is bound_2x4 entry for entry, rho_0 is the pure product
    |1>(|0> + |3>)/sqrt(2), and every member is a PPT state."""
    np.testing.assert_array_equal(sk.horodecki_2x4(1.0).matrix, sk.bound_2x4().matrix)
    psi = np.kron([0, 1], [1, 0, 0, 1]) / np.sqrt(2)
    np.testing.assert_allclose(sk.horodecki_2x4(0.0).matrix, np.outer(psi, psi), atol=1e-15)
    for b in (0.0, 0.2, 0.5, 0.8, 1.0):
        rho = sk.horodecki_2x4(b)
        _assert_valid_density(rho, 2, 4)
        assert sk.ppt_min_eigenvalue(rho) >= -1e-12
    with pytest.raises(ValueError):
        sk.horodecki_2x4(1.5)


def test_tiles_is_the_projector_orthogonal_to_its_upb():
    """Spectrum {1/4 x4, 0 x5}; the five Tiles product vectors span the
    kernel, and the partial transpose stays positive."""
    rho = sk.tiles()
    _assert_valid_density(rho, 3, 3)
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.matrix)[::-1],
                               [0.25] * 4 + [0.0] * 5, atol=1e-15)
    e = np.eye(3)
    upb = [np.kron(e[0], e[0] - e[1]), np.kron(e[0] - e[1], e[2]),
           np.kron(e[2], e[1] - e[2]), np.kron(e[1] - e[2], e[0]),
           np.kron(e.sum(0), e.sum(0))]
    for v in upb:
        assert np.linalg.norm(rho.matrix @ v) < 1e-15
    assert sk.ppt_min_eigenvalue(rho) >= -1e-12


def test_bell_state():
    rho = sk.bell()
    _assert_valid_density(rho, 2, 2)
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-15)


def test_werner_interpolates_singlet_and_noise():
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    pure = np.outer(singlet, singlet.conj())
    for p in (0.0, 0.2, 1.0):
        rho = sk.werner_2x2(p)
        _assert_valid_density(rho, 2, 2)
        np.testing.assert_allclose(rho.matrix, p * pure + (1 - p) * np.eye(4) / 4,
                                   atol=1e-15)
    with pytest.raises(ValueError):
        sk.werner_2x2(1.5)


def test_isotropic_ppt_threshold():
    """The partial transpose goes negative exactly above fidelity 1/d."""
    for d in (2, 3):
        below = sk.isotropic(d, 1.0 / d - 0.05)
        above = sk.isotropic(d, 1.0 / d + 0.05)
        _assert_valid_density(below, d, d)
        assert sk.ppt_min_eigenvalue(below) > 0
        assert sk.ppt_min_eigenvalue(above) < 0
    with pytest.raises(ValueError):
        sk.isotropic(2, 1.1)


def test_product_is_kronecker():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    rho = sk.product(rho_a, rho_b)
    _assert_valid_density(rho, 2, 3)
    np.testing.assert_allclose(rho.matrix, np.kron(rho_a, rho_b), atol=1e-14)
    for a, b in ((np.ones((2, 3)), rho_b), (rho_a, np.ones(3))):
        with pytest.raises(ValueError, match="factors must be square matrices"):
            sk.product(a, b)


def test_random_density_rank_and_seed():
    for rank in (1, 2, 4):
        rho = sk.random_density(2, 2, rank=rank, seed=3)
        _assert_valid_density(rho, 2, 2)
        assert np.sum(np.linalg.eigvalsh(rho.matrix) > 1e-10) == rank
    full = sk.random_density(2, 3, seed=5)
    assert np.sum(np.linalg.eigvalsh(full.matrix) > 1e-10) == 6
    np.testing.assert_array_equal(full.matrix, sk.random_density(2, 3, seed=5).matrix)
    with pytest.raises(ValueError):
        sk.random_density(2, 2, rank=5)


def test_random_states_reject_empty_factors():
    with pytest.raises(ValueError, match=r"dims must be positive, got \(0, 2\)"):
        sk.random_separable(0, 2, 3, 0)
    with pytest.raises(ValueError, match=r"dims must be positive, got \(2, 0\)"):
        sk.random_density(2, 0)
    with pytest.raises(ValueError, match="terms must be >= 1, got 0"):
        sk.random_separable(2, 2, 0, 0)


def test_dims_must_be_integers():
    """(4, 4) == (4.0, 4.0), so float dims once passed the shape check and
    failed later with TypeError; every entry point now refuses them, and
    the constructors refuse a non-integral term count or rank, and a
    negative seed, too."""
    for make in (lambda: sk.DensityMatrix(m=2.0, n=2.0, matrix=np.eye(4) / 4),
                 lambda: sk.density_matrix(2, "2", np.eye(4) / 4),
                 lambda: sk.random_separable(2.5, 2, 3, 0),
                 lambda: sk.random_density(2, 1.5),
                 lambda: sk.isotropic(2.5, 0.5),
                 lambda: sk.density_matrix(True, 2, np.eye(2) / 2),
                 lambda: sk.random_separable(2, True, 3, 0),
                 lambda: sk.random_density(False, 2)):
        with pytest.raises(ValueError, match="dims must be integers"):
            make()
    for make, name in ((lambda: sk.random_separable(2, 3, 2.5, seed=0), "terms"),
                       (lambda: sk.random_density(2, 3, rank=2.5), "rank"),
                       (lambda: sk.random_separable(2, 3, 2, seed=2.5), "seed"),
                       (lambda: sk.random_density(2, 3, seed=2.5), "seed")):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 2.5"):
            make()
    # True is an int to operator.index, but not a dimension or a count.
    for make, name in ((lambda: sk.random_separable(2, 2, True, 0), "terms"),
                       (lambda: sk.random_density(2, 2, True), "rank"),
                       (lambda: sk.random_density(2, 2, seed=True), "seed")):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
            make()
    for make in (lambda: sk.random_density(2, 2, seed=-1),
                 lambda: sk.random_separable(2, 2, 3, -1)):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            make()
    rho = sk.density_matrix(np.int64(2), 2, np.eye(4) / 4)
    assert sk.classify(rho).verdict is sk.Verdict.SEPARABLE_CERTIFIED
    assert sk.random_density(2, 2, seed=np.int64(3)).m == 2


def test_random_separable_stays_ppt():
    """Mixtures of product states can never have a negative partial
    transpose, whatever the seed."""
    for seed in range(10):
        rho = sk.random_separable(2, 3, terms=6, seed=seed)
        _assert_valid_density(rho, 2, 3)
        assert sk.ppt_min_eigenvalue(rho) >= -1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        sk.density_matrix(2, 2, np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        sk.density_matrix(2, 2, np.diag([1.5, -0.5, 0, 0]))
    m = np.eye(4) / 4
    m[0, 1] = 0.2  # not Hermitian
    with pytest.raises(ValueError):
        sk.density_matrix(2, 2, m)
    with pytest.raises(ValueError):
        sk.density_matrix(2, 3, np.eye(4) / 4)  # dims mismatch
    for bad in (np.nan, np.inf):
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = bad
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            sk.density_matrix(2, 2, m)



def test_every_state_is_validated():
    """DensityMatrix checks its matrix itself, so no constructor can skip the
    checks, and every state of the zoo passes them."""
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.2
    with pytest.raises(ValueError, match="not Hermitian"):
        sk.DensityMatrix(2, 2, m)
    with pytest.raises(ValueError, match="trace"):
        sk.DensityMatrix(2, 2, np.eye(4))
    zoo = [sk.bound_2x4(), sk.horodecki_2x4(0.3), sk.tiles(), sk.bell(), sk.werner_2x2(0.7),
           sk.isotropic(3, 0.4), sk.random_density(2, 3, rank=2, seed=1),
           sk.random_separable(3, 2, terms=5, seed=2), sk.product(np.eye(2) / 2, np.eye(3) / 3)]
    for rho in zoo:
        assert isinstance(rho, sk.DensityMatrix)
        sk.density_matrix(rho.m, rho.n, rho.matrix)


def test_state_keeps_its_own_read_only_matrix():
    """Mutating the caller's array after construction changes neither the
    state's matrix nor what classify reports, and the state's arrays are
    read-only."""
    for p in (0.2, 0.8):
        caller = sk.werner_2x2(p).matrix.copy()
        rho = sk.density_matrix(2, 2, caller)
        before = sk.classify(rho)
        caller[:] = np.eye(4) / 4
        np.testing.assert_array_equal(rho.matrix, sk.werner_2x2(p).matrix)
        after = sk.classify(rho)
        assert (after.verdict, after.entangling_pair) == (before.verdict, before.entangling_pair)
        assert after.ppt_min_eigenvalue == before.ppt_min_eigenvalue
        assert after.pairs[0].lambdas.tobytes() == before.pairs[0].lambdas.tobytes()
        assert (after.certificate is None) == (before.certificate is None)
        if after.certificate is not None:
            assert after.certificate.alphas.tobytes() == before.certificate.alphas.tobytes()
        for arr in (rho.matrix, *rho._basis):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_format_float_round_trips():
    for x in (0.5, 1 / 3, 1e-17, -2.75, 0.1 + 0.2):
        assert float(format_float(x)) == x
    assert format_float(0.0) == "0"


def test_serialize_parse_round_trip_is_exact():
    """Serialization keeps 17 significant digits, so the parsed matrix is
    bit-identical."""
    for rho in (sk.bell(), sk.bound_2x4(), sk.random_density(3, 3, seed=7),
                sk.werner_2x2(0.3)):
        again = sk.parse_state(sk.serialize_state(rho))
        assert (again.m, again.n) == (rho.m, rho.n)
        np.testing.assert_array_equal(again.matrix, rho.matrix)


def test_parse_reports_positions():
    with pytest.raises(sk.StateFormatError, match="line 1: expected 'dims m n'"):
        sk.parse_state("dims 2\n")
    with pytest.raises(sk.StateFormatError, match="line 2: expected 4 entries, got 3"):
        sk.parse_state("dims 2 2\n1,0 0,0 0,0\n0,0 0,0 0,0 0,0\n"
                       "0,0 0,0 0,0 0,0\n0,0 0,0 0,0 0,0\n")
    with pytest.raises(sk.StateFormatError, match="line 3: bad number in 'x,0'"):
        sk.parse_state("dims 2 2\n1,0 0,0 0,0 0,0\n0,0 x,0 0,0 0,0\n"
                       "0,0 0,0 0,0 0,0\n0,0 0,0 0,0 0,0\n")
    with pytest.raises(sk.StateFormatError, match="line 5: expected 4 matrix rows"):
        sk.parse_state("dims 2 2\n1,0 0,0 0,0 0,0\n0,0 0,0 0,0 0,0\n"
                       "0,0 0,0 0,0 0,0\n")
    body = "1,0 0,0 0,0 0,0\n0,0 0,0 0,0 0,0\n0,0 0,0 0,0 0,0\n0,0 0,0 0,0 0,0\n"
    for text, message in [
        ("", "line 1: empty input, expected 'dims m n' header"),
        ("dims x 2\n", "line 1: non-integer dims in 'dims x 2'"),
        ("dims -1 2\n", r"line 1: dims must be positive, got \(-1, 2\)"),
        ("dims 2 2\n" + body + "\n0,0\n", "line 7: unexpected content after matrix rows"),
        ("dims 2 2\n" + body + "0,0\n", "line 6: unexpected content after matrix rows"),
    ]:
        with pytest.raises(sk.StateFormatError, match=f"^{message}$"):
            sk.parse_state(text)
    # Blank lines after the rows are not content.
    assert sk.parse_state("dims 2 2\n" + body + "\n \t\n\n").matrix[0, 0] == 1.0


def test_parse_names_malformed_and_non_finite_tokens():
    """A row with any bad token is re-parsed token by token, so the error
    names the token and its line whether the row is otherwise fine or not."""
    rows = ["1,0 0,0 0,0 0,0", "0,0 0,0 0,0 0,0", "0,0 0,0 0,0 0,0", "0,0 0,0 0,0 0,0"]

    def with_token(lineno, token):
        body = list(rows)
        body[lineno - 2] = body[lineno - 2].replace("0,0", token, 1)
        return "dims 2 2\n" + "\n".join(body) + "\n"

    for token in ("0", "0,0,0"):
        with pytest.raises(sk.StateFormatError, match=f"line 3: expected 're,im', got '{token}'"):
            sk.parse_state(with_token(3, token))
    for token in ("nan,0", "0,inf", "-inf,nan"):
        with pytest.raises(sk.StateFormatError, match=f"line 4: non-finite entry '{token}'"):
            sk.parse_state(with_token(4, token))


def test_parse_names_a_misplaced_comma():
    """A row with the right comma count but a wrong split ('0,0,0' next to
    '0') is reported at its first bad token, whichever comes first."""
    rows = ["1,0 0,0 0,0 0,0", "0,0 0,0 0,0 0,0", "0,0 0,0 0,0 0,0", "0,0 0,0 0,0 0,0"]
    for split, first in (("0,0,0 0", "0,0,0"), ("0 0,0,0", "0")):
        body = list(rows)
        body[1] = body[1].replace("0,0 0,0", split, 1)
        assert body[1].count(",") == 4 and len(body[1].split()) == 4
        with pytest.raises(sk.StateFormatError,
                           match=f"line 3: expected 're,im', got '{first}'"):
            sk.parse_state("dims 2 2\n" + "\n".join(body) + "\n")
    # Spaced out, '0, 0' reads like one entry, but it is two tokens.
    body = list(rows)
    body[1] = "0,0 0, 0 0,0 0,0"
    with pytest.raises(sk.StateFormatError, match="line 3: expected 4 entries, got 5"):
        sk.parse_state("dims 2 2\n" + "\n".join(body) + "\n")


def test_parse_accepts_any_whitespace():
    """Tabs, runs of spaces, leading and trailing blanks and CRLF line ends
    parse to the same bytes as single spaces and LF."""
    rho = sk.random_density(2, 3, seed=11)
    text = sk.serialize_state(rho)
    lines = text.splitlines()
    variants = [
        "\r\n".join(lines) + "\r\n",
        "\n".join(line.replace(" ", "\t") for line in lines) + "\n",
        "\n".join(line.replace(" ", "   ") for line in lines) + "\n",
        "\n".join(" \t" + line + " \t " for line in lines) + "\n\n  \n",
    ]
    for variant in variants:
        assert sk.parse_state(variant).matrix.tobytes() == rho.matrix.tobytes()


def _parse_per_token(text: str) -> np.ndarray:
    """Reference parser: float() on every 're,im' token."""
    lines = text.splitlines()
    d = int(lines[0].split()[1]) * int(lines[0].split()[2])
    out = np.zeros((d, 2 * d))
    for i in range(d):
        for j, token in enumerate(lines[1 + i].split()):
            re_part, im_part = token.split(",")
            out[i, 2 * j], out[i, 2 * j + 1] = float(re_part), float(im_part)
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.data(), st.integers(0, 2**32 - 1))
def test_parse_matches_per_token_floats(m, n, data, seed):
    """parse_state(serialize_state(rho)) is bit for bit float() of each token."""
    rank = data.draw(st.integers(1, m * n), label="rank")
    text = sk.serialize_state(sk.random_density(m, n, rank=rank, seed=seed))
    parsed = sk.parse_state(text).matrix
    assert parsed.view(float).tobytes() == _parse_per_token(text).tobytes()


def test_parse_validates_the_matrix():
    good = sk.serialize_state(sk.bell())
    bad_trace = good.replace("0.49999999999999989", "0.4", 1)
    with pytest.raises(sk.StateFormatError, match="trace is 0.9"):
        sk.parse_state(bad_trace)
    neg = ("dims 2 2\n1,0 0,0 0,0 0,0\n0,0 0.5,0 0,0 0,0\n"
           "0,0 0,0 -0.5,0 0,0\n0,0 0,0 0,0 0,0\n")
    with pytest.raises(sk.StateFormatError, match="eigenvalue below"):
        sk.parse_state(neg)
