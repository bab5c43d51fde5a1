"""End-to-end tests of the command line interface through run_cli."""

import enum
import io
import json

import numpy as np
import pytest

import sepkit as sk
from sepkit.cli import run_cli
from test_golden import BUDGET as GOLDEN_BUDGET, STATES as GOLDEN_STATES

CONSTRAINTS_2X4 = """pair 1: 2 2
2 4 1 0
3 3 -1 0
pair 2: 2 3
2 5 1 0
3 4 -1 0
pair 3: 2 4
1 2 1 0
3 5 -1 0
"""


def run(args):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli([str(a) for a in args], out, err)
    return code, out.getvalue(), err.getvalue()


def gen(tmp_path, name, *flags):
    path = tmp_path / f"{name}.txt"
    code, _, err = run(["gen", name, *flags, "--out", path])
    assert code == 0, err
    return path


def test_gen_writes_parseable_files(tmp_path):
    path = gen(tmp_path, "bell")
    rho = sk.parse_state(path.read_text())
    np.testing.assert_array_equal(rho.matrix, sk.bell().matrix)

    path = gen(tmp_path, "werner", "--p", "0.3")
    rho = sk.parse_state(path.read_text())
    np.testing.assert_array_equal(rho.matrix, sk.werner_2x2(0.3).matrix)

    path = gen(tmp_path, "random", "--m", "2", "--n", "3", "--rank", "2", "--seed", "5")
    rho = sk.parse_state(path.read_text())
    np.testing.assert_array_equal(rho.matrix, sk.random_density(2, 3, rank=2, seed=5).matrix)


def test_gen_defaults_to_stdout():
    code, out, _ = run(["gen", "bell"])
    assert code == 0
    np.testing.assert_array_equal(sk.parse_state(out).matrix, sk.bell().matrix)


def test_classify_exit_codes(tmp_path):
    """0 = certified separable, 1 = entangled, 2 = inconclusive."""
    assert run(["classify", gen(tmp_path, "bell")])[0] == 1
    assert run(["classify", gen(tmp_path, "werner", "--p", "0.2")])[0] == 0
    hard = gen(tmp_path, "separable", "--m", "3", "--n", "3",
               "--terms", "12", "--seed", "4")
    code, out, _ = run(["classify", hard, "--restarts", "1", "--max-iters", "10"])
    assert code == 2
    assert out.splitlines()[0] == "verdict: Inconclusive"


def test_internal_errors_exit_70_not_1(tmp_path, monkeypatch):
    """An unexpected exception is a defect, not a proof of entanglement."""
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    path = gen(tmp_path, "bell")
    monkeypatch.setattr(sk.criterion, "classify", broken)
    code, _, err = run(["classify", path])
    assert code == 70
    assert err.strip() == "error: internal error: RuntimeError: boom"


COMMANDS = ["classify", "spectrum", "ppt", "pairs", "decompose", "search", "emit-constraints"]
BUDGET = {"--restarts": "1", "--max-iters": "200", "--seed": "0"}


def _argv(command, path, *flags):
    """A runnable command line: pairs takes dims, decompose a pair index."""
    if command == "pairs":
        return ["pairs", "2", "2", *flags]
    return [command, path, *(["--pair", "1"] if command == "decompose" else []), *flags]


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize("command, target", [
    ("spectrum", "sepkit.criterion.pair_reports"),
    ("ppt", "sepkit.criterion.ppt_min_eigenvalue"),
    ("search", "sepkit.search.minimize"),
    ("decompose", "sepkit.decompose.single_pair_decomposition"),
    ("emit-constraints", "sepkit.search.emit_constraints"),
    ("pairs", "sepkit.cli.pair_operators"),
])
def test_internal_errors_exit_70_from_every_handler(tmp_path, monkeypatch, command, target):
    path = gen(tmp_path, "werner", "--p", "0.2")
    monkeypatch.setattr(target, _boom)
    assert run(_argv(command, path)) == (70, "", "error: internal error: RuntimeError: boom\n")


def test_an_error_while_printing_exits_70(tmp_path, monkeypatch):
    """Rendering the payload is inside the error map: nothing is printed."""
    path = gen(tmp_path, "werner", "--p", "0.2")
    monkeypatch.setattr("sepkit.cli.json.dumps", _boom)
    code, out, err = run(["classify", path, "--json"])
    assert (code, out, err) == (70, "", "error: internal error: RuntimeError: boom\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_but_gen_takes_json(tmp_path, command):
    code, out, _ = run(_argv(command, gen(tmp_path, "werner", "--p", "0.2"), "--json"))
    assert code != 64
    json.loads(out)


def test_gen_takes_no_json(tmp_path, capsys):
    assert run(["gen", "werner", "--p", "0.2", "--json"])[:2] == (64, "")
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_basis_paper_belongs_to_two_subcommands(tmp_path, command):
    """Only the taus and constraints depend on the gauge; classify's
    verdict and pair spectra do not, so classify refuses --basis too."""
    code, _, _ = run(_argv(command, gen(tmp_path, "bound_2x4"), "--basis", "paper"))
    if command in ("spectrum", "emit-constraints"):
        assert code in (0, 2)
    else:
        assert code == 64


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", [*BUDGET, "--k"])
def test_budget_flags_belong_to_classify_and_search(tmp_path, command, flag):
    """--k, the retired ensemble size, belongs to no subcommand: the state sets its own."""
    value = BUDGET.get(flag, "4")
    code, _, _ = run(_argv(command, gen(tmp_path, "werner", "--p", "0.2"), flag, value))
    if command in ("classify", "search") and flag in BUDGET:
        assert code == 0
    else:
        assert code == 64


def test_classify_certifies_one_factor_states(tmp_path):
    path = gen(tmp_path, "random", "--m", "1", "--n", "3", "--seed", "2")
    code, out, _ = run(["classify", path])
    assert code == 0
    assert out.splitlines()[0] == "verdict: SeparableCertified"
    code, out, _ = run(["classify", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == [] and payload["search"] is None
    assert payload["certificate"]["terms"] == 3


def test_classify_bound_2x4_finds_certificate(tmp_path):
    path = gen(tmp_path, "bound_2x4")
    code, out, _ = run(["classify", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: SeparableCertified"
    assert any(line.startswith("certificate: 5 product terms") for line in lines)


def test_classify_json_payload(tmp_path):
    path = gen(tmp_path, "bound_2x4")
    code, out, _ = run(["classify", path, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "SeparableCertified"
    assert data["ppt_min_eigenvalue"] == pytest.approx(0.0, abs=1e-13)
    assert [(p["p"], p["q"]) for p in data["pairs"]] == [(2, 2), (2, 3), (2, 4)]
    assert data["pairs"][0]["a_value"] == pytest.approx(0.0, abs=1e-12)
    assert len(data["pairs"][0]["lambdas"]) == 5
    assert data["search"]["best_residual"] < 1e-20
    assert data["search"]["restarts"] == 1
    searched = json.loads(run(["search", path, "--json"])[1])
    assert data["search"]["iterations"] == searched["iterations"] > 0

    again = run(["classify", path, "--json"])[1]
    assert again == out  # byte-identical across runs


def test_spectrum(tmp_path):
    bell_path = gen(tmp_path, "bell")
    assert run(["spectrum", bell_path])[0] == 1

    bound_path = gen(tmp_path, "bound_2x4")
    code, out, _ = run(["spectrum", bound_path, "--basis", "paper", "--json"])
    assert code == 2  # no pair value is positive
    data = json.loads(out)
    np.testing.assert_allclose(data["eigenvalues"],
                               [0.125, 0.125, 0.25, 0.25, 0.25], atol=1e-13)
    np.testing.assert_allclose(data["pairs"][0]["lambdas"],
                               [0.25, 0.125, 0.125, 0, 0], atol=1e-13)
    np.testing.assert_allclose([p["a_value"] for p in data["pairs"]],
                               [0.0, -0.25, -0.25], atol=1e-12)


@pytest.mark.parametrize("flags, basis", [
    (["bound_2x4"], ["--basis", "paper"]),
    (["random", "--m", "3", "--n", "3", "--rank", "2"], []),
    (["random", "--m", "8", "--n", "8"], []),
])
def test_spectrum_json_taus_are_the_stacked_tau_matrix(tmp_path, flags, basis):
    """Every pair's tau, as 17-digit strings, exactly as tau_matrix builds it."""
    path = gen(tmp_path, *flags)
    code, out, _ = run(["spectrum", path, *basis, "--json"])
    assert code in (1, 2)
    rho = sk.parse_state(path.read_text())
    x = sk.scaled_eigvecs(rho, basis_override=sk.bound_2x4_basis() if basis else None)
    expected = [[[f"{z.real:.17g}", f"{z.imag:.17g}"] for z in sk.tau_matrix(x, b).reshape(-1)]
                for b in sk.pair_operators(rho.m, rho.n)]
    assert json.loads(out)["taus"] == expected


def test_basis_flag_is_bound_2x4_only(tmp_path):
    path = gen(tmp_path, "werner", "--p", "0.2")
    code, _, err = run(["spectrum", path, "--basis", "paper"])
    assert code == 64
    assert "bound_2x4" in err


def test_ppt(tmp_path):
    code, out, _ = run(["ppt", gen(tmp_path, "bell")])
    assert code == 1
    assert run(["ppt", gen(tmp_path, "bound_2x4")])[0] == 2


# A stand-in for an entanglement verdict that classify may add later.
_NEW_VERDICT = enum.Enum("_NEW_VERDICT", {"ENTANGLED_BY_RANGE": "EntangledByRange"})


@pytest.mark.parametrize("verdict, code", [
    (sk.Verdict.SEPARABLE_CERTIFIED, 0),
    (sk.Verdict.ENTANGLED_BY_PAIR_CRITERION, 1),
    (sk.Verdict.ENTANGLED_BY_PPT, 1),
    (sk.Verdict.INCONCLUSIVE, 2),
    (_NEW_VERDICT.ENTANGLED_BY_RANGE, 1),
])
def test_classify_exit_code_follows_the_verdict(tmp_path, monkeypatch, verdict, code):
    """Only SeparableCertified and Inconclusive are named; every other verdict exits 1."""
    path = gen(tmp_path, "werner", "--p", "0.2")
    report = sk.ClassificationReport(verdict=verdict, ppt_min_eigenvalue=0.0, pairs=[])
    monkeypatch.setattr(sk.criterion, "classify", lambda *args, **kwargs: report)
    assert run(["classify", path]) == (code, f"verdict: {verdict.value}\n"
                                             "ppt min eigenvalue: 0\n"
                                             "certificate: none\n", "")


@pytest.mark.parametrize("flags, spectrum, ppt", [
    (["bell"], 1, 1),
    (["werner", "--p", "0.2"], 2, 2),
    (["tiles"], 2, 2),
])
def test_spectrum_and_ppt_exit_1_exactly_when_their_route_decides(tmp_path, flags,
                                                                   spectrum, ppt):
    path = gen(tmp_path, *flags)
    rho = sk.parse_state(path.read_text())
    x = sk.scaled_eigvecs(rho)
    reports = sk.pair_reports(x, rho.m, rho.n)
    ppt_min = sk.ppt_min_eigenvalue(rho)
    decided = [route(rho, x, reports, ppt_min, None) is not None
               for route in (sk.criterion._pair_criterion, sk.criterion._ppt)]
    assert decided == [spectrum == 1, ppt == 1]
    assert [run([command, path])[0] for command in ("spectrum", "ppt")] == [spectrum, ppt]


def test_pairs_listing():
    code, out, _ = run(["pairs", "2", "4"])
    assert code == 0
    assert out.splitlines() == [
        "B1 (p=2, q=2): -1 @ (1,6) (6,1)  +1 @ (2,5) (5,2)",
        "B2 (p=2, q=3): -1 @ (1,7) (7,1)  +1 @ (3,5) (5,3)",
        "B3 (p=2, q=4): -1 @ (1,8) (8,1)  +1 @ (4,5) (5,4)",
    ]


def test_decompose(tmp_path):
    bound_path = gen(tmp_path, "bound_2x4")
    code, out, _ = run(["decompose", bound_path, "--pair", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    members = np.array([[complex(float(re), float(im)) for re, im in row]
                        for row in data["members"]])
    recon = np.einsum("ia,ib->ab", members, members.conj())
    np.testing.assert_allclose(recon, sk.bound_2x4().matrix, atol=1e-12)
    assert data["reconstruction_error"] < 1e-12

    code, _, err = run(["decompose", gen(tmp_path, "bell"), "--pair", "1"])
    assert code == 70
    assert "no annihilating ensemble" in err

    code, _, err = run(["decompose", bound_path, "--pair", "4"])
    assert code == 64
    assert "out of range" in err


@pytest.mark.parametrize("state", [
    ["werner", "--p", "0.2"],
    ["separable", "--m", "2", "--n", "2", "--terms", "4", "--seed", "1"],
])
def test_decompose_full_rank_2x2(tmp_path, state):
    """The 2 x 2 route's ensemble rebuilds the state, annihilates its one
    pair and consists of product members."""
    code, out, _ = run(["decompose", gen(tmp_path, *state), "--pair", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["reconstruction_error"] <= 1e-12
    assert data["max_pair_residual"] <= 1e-12
    assert max(data["member_product_errors"]) <= 1e-6


def test_search_subcommand(tmp_path):
    code, out, _ = run(["search", gen(tmp_path, "werner", "--p", "0.2")])
    assert code == 0
    code, out, _ = run(["search", gen(tmp_path, "bell"), "--restarts", "2"])
    assert code == 2  # a failed search never proves anything


def test_emit_constraints_golden(tmp_path):
    path = gen(tmp_path, "bound_2x4")
    code, out, _ = run(["emit-constraints", path, "--basis", "paper"])
    assert code == 0
    assert out == CONSTRAINTS_2X4


def test_bad_inputs(tmp_path):
    code, _, err = run(["classify", tmp_path / "missing.txt"])
    assert code == 65
    assert "cannot read" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("dims 2 2\n1,0 0,0\n")
    code, _, err = run(["classify", bad])
    assert code == 65
    assert "line 3: expected 4 matrix rows" in err

    assert run(["nonsense"])[0] == 64


def test_a_leading_byte_order_mark_is_not_data(tmp_path):
    """A state file saved with a UTF-8 BOM classifies exactly like the same
    file without one; parse_state itself still refuses the BOM."""
    plain = gen(tmp_path, "separable", "--m", "2", "--n", "3", "--terms", "4")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run(["classify", marked, "--json"]) == run(["classify", plain, "--json"])
    with pytest.raises(sk.StateFormatError, match="expected 'dims m n'"):
        sk.parse_state(marked.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["classify", "search"])
@pytest.mark.parametrize("flag", ["--restarts", "--max-iters"])
def test_budget_flags_must_be_positive(tmp_path, capsys, command, flag):
    """A budget below 1 is a usage error, caught before any work is done."""
    path = gen(tmp_path, "werner", "--p", "0.3")
    for value in ("0", "-2"):
        assert run([command, path, "--json", flag, value])[:2] == (64, "")
        assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
    assert run([command, path, flag, "two"])[0] == 64


@pytest.mark.parametrize("command", ["classify", "search"])
def test_seed_must_be_non_negative(tmp_path, capsys, command):
    path = gen(tmp_path, "werner", "--p", "0.3")
    assert run([command, path, "--json", "--seed", "-1"])[:2] == (64, "")
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert run([command, path, "--seed", "0"])[0] == 0


@pytest.mark.parametrize("state", ["random", "separable", "product"])
def test_gen_seed_must_be_non_negative(tmp_path, capsys, state):
    flags = ["gen", state, "--m", "2", "--n", "2", "--out", tmp_path / "state.txt"]
    assert run([*flags, "--seed", "-1"])[:2] == (64, "")
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "state.txt").exists()
    assert run([*flags, "--seed", "0"])[0] == 0


def test_decompose_usage_errors(tmp_path):
    path = gen(tmp_path, "random", "--m", "1", "--n", "3")
    code, out, err = run(["decompose", path, "--pair", "1"])
    assert (code, out, err) == (64, "", "error: the 1 x 3 state has no pairs\n")


@pytest.mark.parametrize("dims", [["1", "3"], ["3", "1"], ["1", "1"]])
def test_pairs_of_a_one_dimensional_factor_are_none(dims):
    """pair_operators gives a 1 x n or m x 1 system no pairs, and so does pairs."""
    assert run(["pairs", *dims, "--json"]) == (0, '{"pairs": []}\n', "")
    assert run(["pairs", *dims]) == (0, "", "")


@pytest.mark.parametrize("dims", [["0", "3"], ["3", "0"], ["-1", "2"]])
def test_pairs_needs_dims_of_at_least_one(capsys, dims):
    assert run(["pairs", *dims])[:2] == (64, "")
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["horodecki", "--b", "2"], "b must lie in [0, 1]"),
    (["isotropic", "--d", "1", "--fidelity", "0.5"], "d must be >= 2"),
    (["random", "--m", "2", "--n", "2", "--rank", "9"], "rank must lie in [1, 4]"),
    (["werner", "--p", "-0.5"], "p must lie in [0, 1]"),
    (["separable", "--m", "0", "--n", "2"], "dims must be positive, got (0, 2)"),
    (["random", "--m", "2", "--n", "0"], "dims must be positive, got (2, 0)"),
    (["product", "--m", "0", "--n", "2"], "dims must be positive, got (0, 2)"),
])
def test_gen_rejects_out_of_range_parameters(tmp_path, flags, message):
    code, out, err = run(["gen", *flags, "--out", tmp_path / "state.txt"])
    assert (code, out) == (64, "")
    assert message in err
    assert not (tmp_path / "state.txt").exists()


def test_one_factor_states_have_no_pairs(tmp_path):
    """spectrum and emit-constraints report zero pairs on a 1 x 3 state, and
    search returns its eigen-ensemble certificate."""
    path = gen(tmp_path, "random", "--m", "1", "--n", "3", "--seed", "2")
    code, out, _ = run(["spectrum", path, "--json"])
    assert code == 2
    assert json.loads(out)["pairs"] == []
    code, out, _ = run(["emit-constraints", path])
    assert (code, out) == (0, "")
    code, out, _ = run(["emit-constraints", path, "--json"])
    assert code == 0
    assert json.loads(out) == {"count": 3, "pairs": []}
    code, out, _ = run(["search", path, "--json"])
    assert code == 0
    data = json.loads(out)
    assert (data["k"], data["iterations"], data["best_residual"]) == (3, 0, 0.0)
    assert data["certificate"]["terms"] == 3


def test_search_reports_rejected_extractions(tmp_path):
    """Both payloads and the human search line of both commands carry the
    rejected count and the polish count.

    The state is a 2 x 3 mixture of 10 terms padded onto a 2 x 4 system,
    a shape outside ppt_subtraction_decomposition's, so the search runs.
    Its first restart reaches tol_residual on members that are not all
    products: the extraction is rejected and counted, and the polish
    started from the same restart certifies the state."""
    inner = sk.random_separable(2, 3, 10, seed=2).matrix.reshape(2, 3, 2, 3)
    mat = np.zeros((2, 4, 2, 4), dtype=complex)
    mat[:, :3, :, :3] = inner
    path = tmp_path / "embedded.txt"
    path.write_text(sk.serialize_state(sk.density_matrix(2, 4, mat.reshape(8, 8))))
    flags = ["--restarts", "5"]
    searched = json.loads(run(["search", path, "--json", *flags])[1])
    classified = json.loads(run(["classify", path, "--json", *flags])[1])
    assert searched["certificate"] is not None
    for key in ("rejected_extractions", "polish_attempts"):
        assert searched[key] == classified["search"][key]
    assert searched["rejected_extractions"] == searched["polish_attempts"] == 1
    assert searched["restarts"] == 1
    for command in ("search", "classify"):
        out = run([command, path, *flags])[1]
        assert "rejected extractions=1, polish attempts=1, dim V=" in out


def test_search_reports_the_range_dim_that_caps_k(tmp_path):
    """Both payloads and the human search line of both commands carry dim V:
    bound_2x4 has rank 5 and dim V = 9, so the walk is 5, 9 and stops at k = 5."""
    path = gen(tmp_path, "bound_2x4")
    flags = ["--restarts", "1", "--max-iters", "200"]
    searched = json.loads(run(["search", path, "--json", *flags])[1])
    classified = json.loads(run(["classify", path, "--json", *flags])[1])
    for row in (searched, classified["search"]):
        assert (row["k"], row["range_dim"]) == (5, 9)
    for command in ("search", "classify"):
        out = run([command, path, *flags])[1]
        assert "(k=5, restarts=1, iterations=" in out and "dim V=9)" in out


def test_classify_prints_the_search_line_of_search(tmp_path):
    """On every golden state whose classify runs the search, classify's
    search line without its prefix is search's first line, and both end
    with the same certificate line."""
    searched_states = []
    for name, (gen_args, flags) in GOLDEN_STATES.items():
        path = gen(tmp_path, *gen_args)
        classified = run(["classify", path, *flags, *GOLDEN_BUDGET])[1].splitlines()
        searched = run(["search", path, *GOLDEN_BUDGET])[1].splitlines()
        lines = [line for line in classified if line.startswith("search: ")]
        if lines:
            searched_states.append(name)
            assert lines == [f"search: {searched[0]}"]
            assert classified[-1] == searched[-1]
        assert len(searched) == 2 and searched[-1].startswith("certificate: ")
    assert searched_states == ["bound_2x4", "horodecki"]


def test_spectrum_prints_the_pair_lines_of_classify(tmp_path):
    """spectrum's lines are classify's pair lines, and classify names the
    entangling pair by its own pair line."""
    for state in (gen(tmp_path, "bell"), gen(tmp_path, "bound_2x4")):
        classified = run(["classify", state])[1].splitlines()
        spectrum = run(["spectrum", state])[1].splitlines()
        assert spectrum == [line for line in classified if line.startswith("pair ")]
    bell = run(["classify", tmp_path / "bell.txt"])[1].splitlines()
    assert bell[1] == f"entangling {bell[3]}" and bell[3].startswith("pair 1 (p=2, q=2): a = ")


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_a_search_that_walks_no_size_prints_strict_json(tmp_path):
    """Tiles has dim V = 1 below its rank 4, so no size is walked: the
    payloads stay strict JSON (a null best residual, not Infinity) and the
    human lines say why nothing was searched."""
    path = gen(tmp_path, "tiles")
    flags = ["--restarts", "1", "--max-iters", "200"]
    code, out, _ = run(["search", path, "--json", *flags])
    searched = _strict_json(out)
    code_c, out, _ = run(["classify", path, "--json", *flags])
    classified = _strict_json(out)
    assert code == code_c == 2
    for row in (searched, classified["search"]):
        assert (row["best_residual"], row["k"], row["restarts"],
                row["range_dim"]) == (None, 0, 0, 1)
    line = "no size searched: dim V = 1 is below the rank 4"
    assert run(["search", path, *flags])[1].splitlines()[0] == line
    assert f"search: {line}" in run(["classify", path, *flags])[1].splitlines()


def test_gen_bound_entangled_states(tmp_path):
    """The PPT-entangled Horodecki rho_0.5 and Tiles states are written
    exactly, and a small search budget leaves both Inconclusive."""
    path = gen(tmp_path, "horodecki", "--b", "0.5")
    np.testing.assert_array_equal(sk.parse_state(path.read_text()).matrix,
                                  sk.horodecki_2x4(0.5).matrix)
    tiles = gen(tmp_path, "tiles")
    np.testing.assert_array_equal(sk.parse_state(tiles.read_text()).matrix, sk.tiles().matrix)
    for state in (path, tiles):
        code, out, _ = run(["classify", state, "--restarts", "1", "--max-iters", "200"])
        assert code == 2
        assert out.splitlines()[0] == "verdict: Inconclusive"
        assert run(["ppt", state])[0] == 2
        assert run(["spectrum", state])[0] == 2


def test_unwritable_output_and_undecodable_input(tmp_path):
    """gen to a missing directory exits 73 (cannot create), a state file that
    is not UTF-8 exits 65 (invalid input), each with an error line."""
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(["gen", "werner", "--p", "0.2", "--out", target])
    assert (code, out) == (73, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()

    path = tmp_path / "latin1.txt"
    path.write_bytes(sk.serialize_state(sk.bell()).encode() + "\xe9\n".encode("latin-1"))
    code, out, err = run(["classify", path])
    assert (code, out) == (65, "")
    assert err.startswith(f"error: cannot read {path}: ")


def test_eigenvalue_slack_is_bounded_by_the_ppt_boundary(tmp_path):
    """A 1 x 3 state with an eigenvalue of -5e-9 is rejected on input, not
    reported entangled by the partial transpose."""
    path = tmp_path / "slack.txt"
    path.write_text("dims 1 3\n1.000000005,0 0,0 0,0\n0,0 0,0 0,0\n0,0 0,0 -5e-9,0\n")
    code, out, err = run(["ppt", path])
    assert (code, out) == (65, "")
    assert "eigenvalue below -1e-09" in err
