"""Fingerprint every classify field on the benchmark corpora.

Usage, from the repository root:

    python3 tools/fingerprint.py --seed 1

Each state of the ``screen``, ``certify`` and ``exhaust`` corpora
(``perfbench/corpus.py``, imported unchanged) goes through
``parse_state`` and ``classify`` at the benchmark budget (restarts=1,
max_iters=200).  One sha256 per workload is printed over every field of
every report, found by walking ``dataclasses.fields`` of the
``ClassificationReport`` and of every dataclass it holds (the pair
reports, the certificate and the ``SearchReport``): a field added to a
report is covered without naming it here.

A second sha256 per workload (``verdicts=``) covers only each report's
verdict, entangling pair and number of certificate terms.  A third
(``evidence=``) covers every field except the certificate arrays and the
search: the verdict and entangling pair, the bytes of the PPT minimum,
and each pair's lambdas, l' and a-value.  A change that moves only the
rounding of certificates or of the search alters the first digest; equal
``verdicts=`` and ``evidence=`` digests show that every verdict, and the
spectral evidence behind it, is still the parent's bit for bit.

Two checkouts that print the same lines give byte-identical reports.
The hashes depend on the BLAS build, so compare them on one host only.
sepkit is imported from ``src/`` of the checkout this file sits in, and
BLAS runs on one thread.  A negative ``--seed`` is a usage error (exit 2).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "perfbench"))

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import sepkit as sk  # noqa: E402
from sepkit.cli import _int_at_least  # noqa: E402

WORKLOADS = ("screen", "certify", "exhaust")
BUDGET = sk.SearchConfig(restarts=1, max_iters=200)  # perfbench/run.py's BUDGET


def _array(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(repr((a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())


def _evidence(h, rep: sk.ClassificationReport) -> None:
    """Feed one report's verdict, entangling pair, PPT minimum and pair spectra into h."""
    h.update(repr((rep.verdict.value, rep.entangling_pair)).encode())
    h.update(struct.pack("<d", rep.ppt_min_eigenvalue))
    for pr in rep.pairs:
        h.update(repr((pr.pair.p, pr.pair.q, pr.l_prime)).encode())
        h.update(struct.pack("<d", pr.a_value))
        _array(h, pr.lambdas)


def _report(h, value) -> None:
    """Feed every field of a report into h: a dataclass field by field, by
    name; a list item by item; an array or a float by its bytes; an int,
    None, string or enum member by its repr.  Any other type is refused,
    since its repr need not be stable."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            h.update(field.name.encode())
            _report(h, getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}]".encode())
        for item in value:
            _report(h, item)
    elif isinstance(value, np.ndarray):
        _array(h, value)
    elif isinstance(value, float):  # np.float64 too
        h.update(struct.pack("<d", value))
    elif isinstance(value, (int, str, enum.Enum, type(None))):
        h.update(repr(value).encode())
    else:
        raise TypeError(f"cannot fingerprint a {type(value).__name__}")


def _verdict(h, rep: sk.ClassificationReport) -> None:
    """Feed one report's verdict, entangling pair and certificate size into h."""
    terms = None if rep.certificate is None else len(rep.certificate.weights)
    h.update(repr((rep.verdict.value, rep.entangling_pair, terms)).encode())


def fingerprint(workload: str, seed: int) -> tuple[str, str, str, int]:
    """The sha256 over every field, over the verdicts and over the evidence
    of one workload, and its state count."""
    cfg = sk.ClassifyConfig(search=BUDGET)
    digests = {feed: hashlib.sha256() for feed in (_report, _verdict, _evidence)}
    cases = corpus.WORKLOADS[workload](seed)
    for case in cases:
        rep = sk.classify(sk.parse_state(case.text), cfg)
        for feed, h in digests.items():
            feed(h, rep)
    return (*(h.hexdigest() for h in digests.values()), len(cases))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=_int_at_least(0), default=1,
                        help="corpus seed (default 1)")
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        digest, verdicts, evidence, count = fingerprint(workload, args.seed)
        print(f"{workload} seed={args.seed} states={count} sha256={digest} "
              f"verdicts={verdicts} evidence={evidence}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
