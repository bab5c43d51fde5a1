"""Golden outputs of `sepkit classify --json` and `sepkit search --json`.

A fixed set of states at the budget --restarts 1 --max-iters 200.
Integers and strings must match exactly; floats within 1e-12.  A search
that walks no size (dim V below the rank) has a null best residual.  A
refactor that claims identical outputs keeps this file unedited.
"""

import io
import json

import pytest

from sepkit.cli import run_cli

BUDGET = ["--restarts", "1", "--max-iters", "200"]

# name: (gen arguments, extra classify flags)
STATES = {
    "werner": (["werner", "--p", "0.2"], []),
    "bell": (["bell"], []),
    "bound_2x4": (["bound_2x4"], []),
    "separable": (["separable", "--m", "2", "--n", "3", "--terms", "3", "--seed", "1"], []),
    "one_by_three": (["random", "--m", "1", "--n", "3", "--seed", "2"], []),
    "horodecki": (["horodecki", "--b", "0.5"], []),
}

W_WERNER = [0.24999999999999997] * 4
W_BOUND = [0.19999999999999846, 0.20000000000000104, 0.1999999999999993,
           0.19999999999999984, 0.20000000000000145]
W_ONE_BY_THREE = [0.8889452598500943, 0.08981176009410848, 0.021242980055797507]
W_SEPARABLE = [0.04564996889225684, 0.795545549430943, 0.15880448167679978]

# name: exit, verdict, entangling pair, ppt min, a-values,
#       search (best residual, k, restarts, iterations, rejected, polish attempts,
#       dim V) or None,
#       certificate weights or None
CLASSIFY = {
    "werner": (0, "SeparableCertified", None, 0.10000000000000003,
               [-0.19999999999999996], None, W_WERNER),
    "bell": (1, "EntangledByPairCriterion", 1, -0.4999999999999999,
             [0.9999999999999996], None, None),
    "bound_2x4": (0, "SeparableCertified", None, 0.0,
                  [0.0, -0.2500000000000001, -0.2500000000000001],
                  (6.502225146782513e-29, 5, 1, 74, 0, 0, 9), W_BOUND),
    "separable": (0, "SeparableCertified", None, -1.3425674975420517e-16,
                  [-9.71445146547012e-17, 2.7755575615628914e-16], None, W_SEPARABLE),
    "one_by_three": (0, "SeparableCertified", None, 0.02124298005579765,
                     [], None, W_ONE_BY_THREE),
    "horodecki": (2, "Inconclusive", None, -4.417635812605136e-18,
                  [-0.04994330475368636, -0.22222222222222218, -0.17693893711513908],
                  (None, 0, 0, 0, 0, 0, 1), None),
}

# name: exit, (best residual, k, restarts, iterations, rejected, polish attempts, dim V),
#       certificate weights or None
SEARCH = {
    "werner": (0, (5.442491824533158e-33, 8, 1, 10, 0, 1, 16),
               [0.024427448304079023, 0.07699426348810677, 0.20948236112153612,
                0.18857366716012486, 0.13411086883323123, 0.11720522552360074,
                0.07912093014895084, 0.17008523542044787]),
    "bell": (2, (None, 0, 0, 0, 0, 0, 0), None),
    "bound_2x4": (0, (6.502225146782513e-29, 5, 1, 74, 0, 0, 9), W_BOUND),
    "separable": (2, (0.00019579803133573583, 3, 1, 200, 0, 0, 3), None),
    "one_by_three": (0, (0.0, 3, 0, 0, 0, 0, 9), W_ONE_BY_THREE),
    "horodecki": (2, (None, 0, 0, 0, 0, 0, 1), None),
}


def run(args):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli([str(a) for a in args], out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (gen_args, _) in STATES.items():
        paths[name] = root / f"{name}.txt"
        code, _, err = run(["gen", *gen_args, "--out", paths[name]])
        assert code == 0, err
    return paths


def assert_floats(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert (a is None) == (e is None), (actual, expected)
        assert e is None or abs(a - e) <= 1e-12, (actual, expected)


def search_fields(row):
    return (row["k"], row["restarts"], row["iterations"], row["rejected_extractions"],
            row["polish_attempts"], row["range_dim"])


def assert_certificate(row, weights):
    if weights is None:
        assert row is None
        return
    assert row["terms"] == len(weights)
    assert_floats(row["weights"], weights)


@pytest.mark.parametrize("name", list(STATES))
def test_classify_golden(state_files, name):
    code, out, err = run(["classify", state_files[name], "--json", *STATES[name][1], *BUDGET])
    exit_code, verdict, pair, ppt_min, a_values, search, weights = CLASSIFY[name]
    payload = json.loads(out)
    assert code == exit_code, err
    assert payload["verdict"] == verdict
    assert payload["entangling_pair"] == pair
    assert_floats([payload["ppt_min_eigenvalue"]], [ppt_min])
    assert_floats([rep["a_value"] for rep in payload["pairs"]], a_values)
    if search is None:
        assert payload["search"] is None
    else:
        assert search_fields(payload["search"]) == search[1:]
        assert_floats([payload["search"]["best_residual"]], search[:1])
    assert_certificate(payload["certificate"], weights)


@pytest.mark.parametrize("name", list(STATES))
def test_search_golden(state_files, name):
    code, out, err = run(["search", state_files[name], "--json", *BUDGET])
    exit_code, search, weights = SEARCH[name]
    payload = json.loads(out)
    assert code == exit_code, err
    assert search_fields(payload) == search[1:]
    assert_floats([payload["best_residual"]], search[:1])
    assert_certificate(payload["certificate"], weights)
