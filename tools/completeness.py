"""Completeness sweep: how many seeded separable mixtures sepkit certifies.

Usage, from the repository root:

    python3 tools/completeness.py --restarts 1 --max-iters 200 \
        --min-classify 193 --min-minimize 140

The states are ``random_separable(m, n, terms, seed)`` for m x n in 2x3,
3x3, 2x4, 3x4, 2x5 and 4x4 and seeds 0-3: first every terms from 2 to
mn - 1 (196 states, below full rank), then terms mn and mn + 2 (48
states, full rank).  Every one is separable, so each state that ends
without a certificate is a completeness failure, never a wrong verdict.
Each state goes through ``classify`` (closed forms, then the search) and
through ``minimize`` alone, both at the budget given by ``--restarts``
and ``--max-iters``.

Then come 20 mixtures of products |aa> on d x d (``symmetric_mixture``),
with 4 and 6 terms on 2x2 and 8, 10 and 12 on 3x3, seeds 0-3.  They have
dim V > l, and their range products form continuous families, so on 3x3
no closed form applies and only the search can certify them.  They are
counted apart, under ``sym``, and leave the ``all`` counts and the
floors untouched.

Last come the maximally mixed states I/mn on 3x7, 2x11, 4x6 and 5x5,
above the mn <= 20 where a full-rank search fits the product space
(``products._POLISH_MAX_DIM``).  Each prints as mn terms at seed 0.  They
are counted apart too, under ``mixed``.

One line per state gives its rank l, dim V (``SearchReport.range_dim``),
whether each route certified, and the search's k, iterations, product
fits (``polish_attempts``) and rejected extractions; then the certified
counts, total search iterations, and ``minimize``'s total fits and
rejected extractions per shape, below full rank (``below``), at full
rank (``full``), over the 244 ``random_separable`` states (``all``),
per ``sym`` shape and over the 20 ``sym`` states (``sym``), and per
``mixed`` shape and over the 4 ``mixed`` states (``mixed``).  The floors
apply to the ``all`` counts.
Every certificate is re-checked with ``check_certificate``, and every
``minimize`` report, and every ``classify`` report whose certificate came
from the search, is held to the report's contract: ``best_u`` has shape
(k, l) and the certificate has at most k terms.  The exit code is 1 when
a count falls below its ``--min-*`` floor or a report breaks that
contract (each failure prints a ``FAIL:`` line on stderr), 2 for a
budget below 1 (before any output), else 0.

sepkit is imported from ``src/`` of the checkout this file sits in, and
BLAS runs on one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

import sepkit as sk  # noqa: E402
from sepkit.cli import _int_at_least  # noqa: E402

SHAPES = ((2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (4, 4))
SYM_TERMS = ((2, (4, 6)), (3, (8, 10, 12)))  # (d, terms) of the |aa> rows
MIXED_SHAPES = ((3, 7), (2, 11), (4, 6), (5, 5))  # the I/mn rows
SEEDS = range(4)


def symmetric_mixture(d: int, terms: int, seed: int) -> sk.DensityMatrix:
    """A d x d mixture of products |aa>: Dirichlet weights, each a a
    normalised complex Gaussian, drawn in that order."""
    rng = np.random.default_rng(seed)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.linalg.norm(a)
        psi = np.kron(a, a)
        mat += w * np.outer(psi, psi.conj())
    return sk.density_matrix(d, d, mat)


def cases():
    """Yield (labels, terms, seed, state): the random_separable rows below
    full rank, then the full-rank rows, then the |aa> rows, then the I/mn
    rows (terms mn, seed 0).  labels are the total rows the state counts
    in, its shape's first."""
    for full_rank in (False, True):
        for m, n in SHAPES:
            for terms in (m * n, m * n + 2) if full_rank else range(2, m * n):
                for seed in SEEDS:
                    yield ((f"{m}x{n}", "full" if full_rank else "below", "all"), terms, seed,
                           sk.random_separable(m, n, terms, seed))
    for d, sym_terms in SYM_TERMS:
        for terms in sym_terms:
            for seed in SEEDS:
                yield (f"sym{d}x{d}", "sym"), terms, seed, symmetric_mixture(d, terms, seed)
    for m, n in MIXED_SHAPES:
        yield (f"mixed{m}x{n}", "mixed"), m * n, 0, sk.density_matrix(m, n, np.eye(m * n) / (m * n))


def contract_error(report: sk.SearchReport, l: int) -> str | None:
    """How the search report breaks its contract, or None: best_u is a
    (k, l) array and a certificate has at most k terms."""
    if report.best_u.shape != (report.k, l):
        return f"best_u has shape {report.best_u.shape}, expected ({report.k}, {l})"
    if report.certificate is not None and len(report.certificate.weights) > report.k:
        return f"the certificate has {len(report.certificate.weights)} terms, above k = {report.k}"
    return None


def sweep(cfg: sk.SearchConfig):
    """Yield (labels, terms, seed, l, classify report, minimize report)."""
    for labels, terms, seed, rho in cases():
        classified = sk.classify(rho, sk.ClassifyConfig(search=cfg))
        searched = sk.minimize(rho, cfg)
        for cert in (classified.certificate, searched.certificate):
            if cert is not None:
                sk.check_certificate(cert, rho.matrix)
        yield labels, terms, seed, sk.scaled_eigvecs(rho).count, classified, searched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--restarts", type=_int_at_least(1), default=1)
    parser.add_argument("--max-iters", dest="max_iters", type=_int_at_least(1), default=200)
    parser.add_argument("--min-classify", dest="min_classify", type=int, default=0,
                        help="fail below this many classify certificates")
    parser.add_argument("--min-minimize", dest="min_minimize", type=int, default=0,
                        help="fail below this many minimize certificates")
    args = parser.parse_args(argv)
    cfg = sk.SearchConfig(restarts=args.restarts, max_iters=args.max_iters)

    start = time.perf_counter()
    # row label -> [states, classify, minimize, classify iters, minimize iters,
    #               minimize fits, minimize rejected extractions]
    totals = {}
    failed = False
    print("shape terms seed  l dimV classify minimize  k iters polish rejected")
    for labels, terms, seed, l, classified, searched in sweep(cfg):
        checked = [("minimize", searched)]
        if classified.search is not None and classified.certificate is not None:
            checked.append(("classify", classified.search))
        for route, report in checked:
            error = contract_error(report, l)
            if error is not None:
                print(f"FAIL: {labels[0]} terms={terms} seed={seed} {route}: {error}",
                      file=sys.stderr)
                failed = True
        counts = (1, classified.certificate is not None, searched.certificate is not None,
                  classified.search.iterations_used if classified.search else 0,
                  searched.iterations_used, searched.polish_attempts,
                  searched.rejected_extractions)
        for label in labels:
            row = totals.setdefault(label, [0] * len(counts))
            row[:] = [a + b for a, b in zip(row, counts)]
        print(f"{labels[0]} {terms:5d} {seed:4d} {l:2d} {searched.range_dim:4d} "
              f"{'yes' if classified.certificate is not None else 'no':>8} "
              f"{'yes' if searched.certificate is not None else 'no':>8} "
              f"{searched.k:3d} {searched.iterations_used:5d} "
              f"{searched.polish_attempts:6d} {searched.rejected_extractions:8d}")

    print(f"\nbudget: restarts={cfg.restarts} max_iters={cfg.max_iters}")
    print("shape states classify minimize classify_iters minimize_iters "
          "minimize_polish minimize_rejected")
    for label in ([f"{m}x{n}" for m, n in SHAPES] + ["below", "full", "all"]
                  + [f"sym{d}x{d}" for d, _ in SYM_TERMS] + ["sym"]
                  + [f"mixed{m}x{n}" for m, n in MIXED_SHAPES] + ["mixed"]):
        row = totals[label]
        print(f"{label} {row[0]:6d} {row[1]:8d} {row[2]:8d} {row[3]:14d} {row[4]:14d} "
              f"{row[5]:15d} {row[6]:17d}")
    print(f"wall time: {time.perf_counter() - start:.1f} s")

    overall = totals["all"]
    for name, count, floor in (("classify", overall[1], args.min_classify),
                               ("minimize", overall[2], args.min_minimize)):
        if count < floor:
            print(f"FAIL: {name} certified {count}, below the floor {floor}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
