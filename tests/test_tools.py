"""The repository tools: the fingerprint covers every report field, and a bad
flag is a usage error before any output."""

import dataclasses
import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import sepkit as sk

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(monkeypatch, name: str):
    """Import tools/<name>.py; its sys.path and BLAS thread settings are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_fingerprint_digest_sees_every_search_field(monkeypatch):
    """The every-field digest walks the report's dataclasses, so a report
    that differs only in one counter of its search, polish_attempts among
    them, hashes differently."""
    fingerprint = load_tool(monkeypatch, "fingerprint")
    cfg = sk.ClassifyConfig(search=sk.SearchConfig(restarts=1, max_iters=200))
    report = sk.classify(sk.bound_2x4(), cfg)

    def digest(rep):
        h = hashlib.sha256()
        fingerprint._report(h, rep)
        return h.hexdigest()

    base = digest(report)
    assert digest(sk.classify(sk.bound_2x4(), cfg)) == base
    for field in dataclasses.fields(sk.SearchReport):
        value = getattr(report.search, field.name)
        if isinstance(value, int):
            moved = dataclasses.replace(report.search, **{field.name: value + 1})
            assert digest(dataclasses.replace(report, search=moved)) != base, field.name


@pytest.mark.parametrize("tool, flags, message", [
    ("completeness", ["--restarts", "0"], "argument --restarts: must be >= 1, got 0"),
    ("completeness", ["--max-iters", "-3"], "argument --max-iters: must be >= 1, got -3"),
    ("fingerprint", ["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
])
def test_tools_refuse_a_bad_flag_before_any_output(tool, flags, message):
    """Exit 2 with argparse's message and nothing on stdout: exit 1 of the
    sweep means a count fell below its floor, never a bad flag."""
    result = subprocess.run([sys.executable, str(TOOLS / f"{tool}.py"), *flags],
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (2, "")
    assert message in result.stderr


def test_completeness_holds_search_reports_to_their_contract(monkeypatch):
    """The sweep's contract check passes a real report and names a best_u
    of another shape and a certificate with more terms than k."""
    completeness = load_tool(monkeypatch, "completeness")
    report = sk.minimize(sk.bound_2x4(), sk.SearchConfig(restarts=1, max_iters=200))
    assert report.certificate is not None and report.best_u.shape == (5, 5)
    assert completeness.contract_error(report, 5) is None
    wrong_u = dataclasses.replace(report, best_u=report.best_u[:4])
    assert completeness.contract_error(wrong_u, 5) == \
        "best_u has shape (4, 5), expected (5, 5)"
    small_k = dataclasses.replace(report, k=4, best_u=report.best_u[:4])
    assert completeness.contract_error(small_k, 5) == \
        "the certificate has 5 terms, above k = 4"
