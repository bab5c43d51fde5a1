"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import corpus
import run
import verify
from tracing import WRAPPED, Tracer

MODS = run.load_sepkit()
BUDGET = MODS["criterion"].ClassifyConfig(search=MODS["search"].SearchConfig(**run.BUDGET))


def texts(cases):
    return [c.text for c in cases]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_corpus_is_a_function_of_the_seed(workload):
    make = corpus.WORKLOADS[workload]
    assert texts(make(7)) == texts(make(7))
    assert texts(make(7)) != texts(make(8))


@pytest.mark.parametrize("workload", ["screen", "certify"])
def test_same_seed_gives_same_verdicts_and_certified_frac(workload):
    first = run.run_pass(MODS, corpus.WORKLOADS[workload](3), BUDGET, workload)
    cases = corpus.WORKLOADS[workload](3)
    second = run.run_pass(MODS, cases, BUDGET, workload)
    assert first["problems"] == [] and second["problems"] == []
    assert first["outcomes"] == second["outcomes"]
    assert run.certified_frac(cases, first["outcomes"]) == run.certified_frac(
        cases, second["outcomes"])


def installed_wrappers():
    return [(mod, attr) for mod, attr, _, _ in WRAPPED
            if hasattr(getattr(MODS[mod], attr), "perfbench_label")]


def test_traced_pass_matches_untraced_and_uninstalls():
    cases = corpus.certify(5)[::3] + corpus.exhaust(5)[-1:]
    plain = run.run_pass(MODS, cases, BUDGET, "certify")
    tracer = Tracer(MODS)
    tracer.install()
    assert len(installed_wrappers()) == len(WRAPPED)
    try:
        traced = run.run_pass(MODS, cases, BUDGET, "certify", tracer)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert traced["outcomes"] == plain["outcomes"]
    metrics = tracer.metrics()
    assert metrics["states.parse_calls"] == 1.0
    assert metrics["search.iterations"] > 0 and metrics["linalg.qr_calls"] > 0
    assert 0.0 < metrics["search.step_accept_ratio"] <= 1.0
    assert all(span is not None for span in tracer.spans)


def test_untraced_run_installs_no_wrapper():
    passes = run.measure(MODS, corpus.screen(1)[:20], BUDGET, "screen", seconds=1)
    assert installed_wrappers() == []
    assert passes and all(not p["traced"] for p in passes)


def test_closed_form_states_pass_their_self_check():
    bs = np.linspace(0.0, 1.0, 41)
    assert corpus.self_check(MODS["states"].bound_2x4().matrix, bs) == []
    assert corpus.self_check(np.eye(8) / 8, []) == ["horodecki_2x4(1) differs from bound_2x4"]


def test_verifier_rejects_wrong_or_unsupported_verdicts():
    classify = MODS["criterion"].classify
    sep = corpus.separable_mixture(np.random.default_rng(0), 2, 2, 3)
    report = classify(MODS["states"].parse_state(sep.text))
    assert report.verdict.value == "SeparableCertified"
    assert verify.verdict_problem(sep, report) is None
    cert = report.certificate
    bad = replace(cert, weights=cert.weights * 1.01)
    assert "weights" in verify.verdict_problem(sep, replace(report, certificate=bad))
    bad = replace(cert, betas=cert.betas[::-1])
    assert "reassembles" in verify.verdict_problem(sep, replace(report, certificate=bad))
    assert "entangled" in verify.verdict_problem(replace(sep, known=corpus.ENTANGLED), report)

    ent = corpus.pure(np.random.default_rng(1), 3, 3)
    report = classify(MODS["states"].parse_state(ent.text))
    assert report.verdict.value == "EntangledByPairCriterion"
    assert verify.verdict_problem(ent, report) is None
    r = report.entangling_pair
    assert abs(verify.pair_a_value(ent.matrix, 3, 3, r) - report.pairs[r - 1].a_value) < 1e-12
    assert "separable" in verify.verdict_problem(replace(ent, known=corpus.SEPARABLE), report)
    tiles = corpus.exhaust(0)[-1]
    assert "no violation" in verify.verdict_problem(tiles, replace(report, entangling_pair=1))
    ppt = replace(report, verdict=MODS["criterion"].Verdict.ENTANGLED_BY_PPT)
    assert "no violation" in verify.verdict_problem(tiles, ppt)


def bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    proc = bench(["--workload", "screen", "--seed", "2", "--seconds", "1", "--trace", trace],
                 run.ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = run.load_spec()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[section])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "screen", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
