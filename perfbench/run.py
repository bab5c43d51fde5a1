"""sepkit benchmark: seeded workloads through the public API, every verdict re-checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

``--workload`` is ``screen``, ``certify``, ``exhaust`` or ``all`` (each
of the three in its own process).  One operation is one state taken from
its serialized text through ``parse_state`` to ``classify``; one client
runs them back to back (a closed loop) in this process.  A run repeats
whole passes over the workload's corpus for about ``--seconds``.

With ``--trace 0`` the run prints the end-to-end metrics declared in
BENCHMARK.json.  With ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics and the tracing overhead, and
counts every traced verdict that differs from the untraced one as a
failure.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every verdict passed the re-check in ``verify.py``.

Times are reported at reference speed.  A shared host can run the same
code up to twice as slowly for seconds to tens of seconds at a time (on
a 2-vCPU Xeon VM the reference kernel below ranged from 1.85 to 6.4 ms),
so a short fixed numpy kernel (``reference_s``) is timed every
PROBE_EVERY_S of work and each wall time is scaled by REF_NOMINAL_S over
the kernel's time measured around it.  The human-readable lines give the
kernel's median time, so the scaling can be undone.

sepkit is imported from ``src/`` of the checkout this file sits in, and
BLAS runs on one thread.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import verify  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_NAMES = ("screen", "certify", "exhaust")

# One search budget for every workload, fixed once and far below the
# defaults (restarts=50), where one unsuccessful state costs minutes.
# `screen` never reaches the search; there the budget only bounds the
# cost of a regression that does.
BUDGET = {"restarts": 1, "max_iters": 200}
SPAWNS = 9             # fresh processes per run for setup_s and cli.import_ms
SPAWN_TIMEOUT_S = 60
PROBE_EVERY_S = 0.1    # work between two timings of the reference kernel
REF_NOMINAL_S = 2.0e-3  # reference kernel time that times are scaled to

_REF_RNG = np.random.default_rng(20261017)
_REF_H = _REF_RNG.standard_normal((16, 16)) + 1j * _REF_RNG.standard_normal((16, 16))
_REF_H = _REF_H + _REF_H.conj().T
_REF_A = _REF_RNG.standard_normal((24, 12)) + 1j * _REF_RNG.standard_normal((24, 12))


def reference_s() -> float:
    """Wall time of a fixed mix of small LAPACK calls, the kind sepkit makes (about 2 ms)."""
    t0 = time.perf_counter()
    for _ in range(20):
        np.linalg.eigh(_REF_H)
        np.linalg.qr(_REF_A)
        np.linalg.svd(_REF_A, compute_uv=False)
    return time.perf_counter() - t0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad BENCHMARK.json)."""


def load_sepkit() -> dict:
    if not os.path.isfile(os.path.join(SRC, "sepkit", "__init__.py")):
        raise BenchError(f"no sepkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import sepkit
    from sepkit import criterion, decompose, linalg, pairs, search, states
    if not os.path.abspath(sepkit.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported sepkit from {sepkit.__file__}, not from {SRC}")
    return {"sepkit": sepkit, "states": states, "pairs": pairs, "linalg": linalg,
            "criterion": criterion, "decompose": decompose, "search": search}


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


# --- fresh-process timings ----------------------------------------------------

def _spawn(args: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run the interpreter with `args`; wall time, scale to reference speed, result."""
    env = dict(os.environ, PYTHONPATH=SRC)
    before = reference_s()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SPAWN_TIMEOUT_S, check=False)
    dt = time.perf_counter() - t0
    return dt, 2.0 * REF_NOMINAL_S / (before + reference_s()), proc


def measure_setup() -> tuple[float, list[str]]:
    """Median time of `sepkit classify <2x2 file> --json` in a fresh process.

    Each call must exit 0 with a SeparableCertified verdict.
    """
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "setup_state.txt")
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    mat = 0.2 * np.outer(singlet, singlet) + 0.8 * np.eye(4) / 4
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus.serialize(2, 2, mat))
    times, problems = [], []
    for _ in range(SPAWNS):
        dt, scale, proc = _spawn(["-m", "sepkit.cli", "classify", path, "--json"])
        times.append(dt * scale)
        try:
            verdict = json.loads(proc.stdout)["verdict"]
        except (ValueError, KeyError, TypeError):
            verdict = None
        if proc.returncode != 0 or verdict != "SeparableCertified":
            problems.append(f"setup CLI call exited {proc.returncode} with verdict {verdict}: "
                            f"{proc.stderr.strip()[-200:]}")
    return statistics.median(times), problems


def measure_import_ms() -> tuple[float, list[str]]:
    """Median time of `import sepkit` in a fresh process, measured inside it."""
    code = "import time; t = time.perf_counter(); import sepkit; print(time.perf_counter() - t)"
    values, problems = [], []
    for _ in range(SPAWNS):
        _, scale, proc = _spawn(["-c", code])
        try:
            values.append(float(proc.stdout) * scale * 1e3)
        except ValueError:
            problems.append(f"import sepkit failed: {proc.stderr.strip()[-200:]}")
    return (statistics.median(values) if values else 0.0), problems


# --- the closed loop ------------------------------------------------------------

def run_pass(mods, cases, cfg, workload, tracer=None) -> dict:
    """One pass over the corpus: scaled per-operation times, outcomes and failures."""
    states, criterion = mods["states"], mods["criterion"]
    clock = time.perf_counter
    raw, marks, outcomes, problems = [], [], [], []
    refs = [reference_s()]
    last_probe = clock()
    for case in cases:
        if clock() - last_probe >= PROBE_EVERY_S:
            refs.append(reference_s())
            last_probe = clock()
        marks.append(len(refs) - 1)
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        try:
            # Looked up on each call so that the tracer's wrappers are seen.
            report = criterion.classify(states.parse_state(case.text), cfg)
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            raw.append(clock() - t0)
            outcomes.append(("error", 0))
            problems.append(f"{case.family} {case.m}x{case.n}: {type(exc).__name__}: {exc}")
            continue
        raw.append(clock() - t0)
        if tracer is not None:
            tracer.end_op(report)
        terms = 0 if report.certificate is None else len(report.certificate.weights)
        outcomes.append((report.verdict.value, terms))
        problem = verify.verdict_problem(case, report)
        if problem is None and workload == "screen" and report.search is not None:
            problem = "reached the search"
        if problem is not None:
            problems.append(f"{case.family} {case.m}x{case.n}: {problem}")
    refs.append(reference_s())
    times = [t * 2.0 * REF_NOMINAL_S / (refs[k] + refs[k + 1]) for t, k in zip(raw, marks)]
    return {"times": times, "raw": raw, "refs": refs, "outcomes": outcomes,
            "problems": problems, "failed": len(problems)}


def certified_frac(cases, outcomes) -> float:
    """Certified / separable by construction; 1.0 when no state is separable (exhaust)."""
    separable = [o for c, o in zip(cases, outcomes) if c.known == corpus.SEPARABLE]
    if not separable:
        return 1.0
    return sum(o[0] == "SeparableCertified" for o in separable) / len(separable)


def measure(mods, cases, cfg, workload, seconds, tracer=None) -> list[dict]:
    """Whole passes for about `seconds`; with a tracer, untraced and traced passes alternate.

    There are at least three passes, so that a state's median time is
    taken over at least three timings (two untraced and one traced when
    tracing); a further pass starts only if the mean pass so far still
    fits in the time left.
    The first pass is untraced and is the reference for the verdicts of
    every later pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                result = run_pass(mods, cases, cfg, workload, tracer)
            finally:
                tracer.uninstall()
        else:
            result = run_pass(mods, cases, cfg, workload)
        result["traced"] = traced
        if passes:
            differ = sum(a != b for a, b in zip(result["outcomes"], passes[0]["outcomes"]))
            if differ:
                result["failed"] += differ
                result["problems"].append(f"{differ} verdicts differ from the first pass"
                                          + (" (traced)" if traced else ""))
        passes.append(result)
        elapsed = time.perf_counter() - start
        if len(passes) >= 3 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def state_times(passes, traced=False) -> list[float]:
    """Each state's median scaled time over the passes of one kind."""
    return [statistics.median(ts)
            for ts in zip(*(p["times"] for p in passes if p["traced"] == traced))]


def end_to_end(cases, passes, setup_s) -> dict:
    times = state_times(passes)
    return {
        "setup_s": setup_s,
        "states_per_s": len(times) / sum(times),
        "state_ms_p50": float(np.percentile(times, 50)) * 1e3,
        "state_ms_p99": float(np.percentile(times, 99)) * 1e3,
        "certified_frac": certified_frac(cases, passes[0]["outcomes"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, passes, import_ms) -> dict:
    """Tracer metrics, with times scaled by the traced passes' median reference time."""
    refs = [r for p in passes if p["traced"] for r in p["refs"]]
    scale = REF_NOMINAL_S / statistics.median(refs)
    out = {name: value * scale if name.endswith(("_ms", ".us_per_iter")) else value
           for name, value in tracer.metrics().items()}
    out["trace.overhead_frac"] = sum(state_times(passes, True)) / sum(state_times(passes)) - 1.0
    out["cli.import_ms"] = import_ms
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    spec = load_spec()
    mods = load_sepkit()
    problems = corpus.self_check(mods["states"].bound_2x4().matrix, corpus.exhaust_bs(seed))
    cases = corpus.WORKLOADS[workload](seed)
    cfg = mods["criterion"].ClassifyConfig(search=mods["search"].SearchConfig(**BUDGET))

    if trace:
        import_ms, setup_problems = measure_import_ms()
    else:
        setup_s, setup_problems = measure_setup()
    problems += setup_problems

    # Warm-up: lazy imports and first-call costs stay out of the timed passes.
    run_pass(mods, cases[:1], cfg, workload)

    tracer = Tracer(mods) if trace else None
    passes = measure(mods, cases, cfg, workload, seconds, tracer)
    problems += [p for result in passes for p in result["problems"]]
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)

    if trace:
        metrics = per_layer(tracer, passes, import_ms)
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(cases, passes, setup_s)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise BenchError(f"computed metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(names)}")

    counts = {}
    for verdict, _ in passes[0]["outcomes"]:
        counts[verdict] = counts.get(verdict, 0) + 1
    refs = [r for p in passes for r in p["refs"]]
    raw = [t for p in passes if not p["traced"] for t in p["raw"]]
    print(f"workload {workload}  seed {seed}  states/pass {len(cases)}  passes {len(passes)}"
          f"  ops {attempted}  BLAS threads {BLAS_THREADS}  nproc {os.cpu_count()}")
    print(f"reference kernel median {statistics.median(refs) * 1e3:.3f} ms (times scaled to "
          f"{REF_NOMINAL_S * 1e3:.1f} ms); unscaled untraced states_per_s "
          f"{len(raw) / sum(raw):.6g}")
    print("verdicts/pass  " + "  ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    for m in declared:
        print(f"{m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                check=False).returncode for w in WORKLOAD_NAMES]
        return max(codes)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
