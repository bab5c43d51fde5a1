"""Command-line interface.

Exit codes: 0 a separable decomposition was certified, 1 entanglement was
proven (pair criterion or partial transpose), 2 inconclusive, 64 usage
errors, 65 unreadable or invalid input, 70 a valid request whose
operation fails (e.g. decomposing a pair that violates the criterion),
73 an output file that cannot be written.
"""

import argparse
import json
import sys

import numpy as np

from . import criterion, decompose, search, states
from .pairs import enumerate_pairs, pair_operators

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_FAILED = 70
EXIT_CANTCREAT = 73

_VERDICT_EXIT = {
    criterion.Verdict.SEPARABLE_CERTIFIED: EXIT_SEPARABLE,
    criterion.Verdict.ENTANGLED_BY_PAIR_CRITERION: EXIT_ENTANGLED,
    criterion.Verdict.ENTANGLED_BY_PPT: EXIT_ENTANGLED,
    criterion.Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_state(path: str) -> states.DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_DATA) from exc
    try:
        return states.parse_state(text)
    except states.StateFormatError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_DATA) from exc


def _resolve_basis(args, rho) -> np.ndarray | None:
    if getattr(args, "basis", None) != "paper":
        return None
    reference = states.bound_2x4()
    if (rho.m, rho.n) != (2, 4) or np.linalg.norm(rho.matrix - reference.matrix) > 1e-10:
        raise _CliError("--basis paper applies only to the built-in bound_2x4 state",
                        EXIT_USAGE)
    return states.bound_2x4_basis()


def _search_config(args) -> search.SearchConfig:
    flags = {name: getattr(args, name) for name in ("k", "restarts", "max_iters", "seed")}
    return search.SearchConfig(**{name: v for name, v in flags.items() if v is not None})


def _int_at_least(low: int):
    """An argparse type for integers >= low."""
    def int_at_least(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return int_at_least


def _emit(args, payload: dict, human: list[str], out) -> None:
    if args.json:
        print(json.dumps(payload), file=out)
    else:
        for line in human:
            print(line, file=out)


def _pair_rows(reports) -> list[dict]:
    return [{"p": rep.pair.p, "q": rep.pair.q,
             "lambdas": [float(v) for v in rep.lambdas],
             "a_value": float(rep.a_value)} for rep in reports]


def _search_row(report) -> dict | None:
    if report is None:
        return None
    return {"best_residual": float(report.best_residual), "k": int(report.k),
            "restarts": int(report.restarts_used),
            "iterations": int(report.iterations_used),
            "rejected_extractions": int(report.rejected_extractions)}


def _certificate_row(cert) -> dict | None:
    if cert is None:
        return None
    return {"terms": int(cert.weights.shape[0]),
            "weights": [float(w) for w in cert.weights]}


# gen subcommand -> the state its flags describe.
_GENERATORS = {
    "bound_2x4": lambda a: states.bound_2x4(),
    "horodecki": lambda a: states.horodecki_2x4(a.b),
    "tiles": lambda a: states.tiles(),
    "bell": lambda a: states.bell(),
    "werner": lambda a: states.werner_2x2(a.p),
    "isotropic": lambda a: states.isotropic(a.d, a.fidelity),
    "random": lambda a: states.random_density(a.m, a.n, a.rank, a.seed),
    "separable": lambda a: states.random_separable(a.m, a.n, a.terms, a.seed),
    "product": lambda a: _random_product(a.m, a.n, a.seed),
}


def _random_product(m: int, n: int, seed: int) -> states.DensityMatrix:
    """rho_A x rho_B with seeded full-rank factors; bad dims are reported as given."""
    states._check_dims(m, n)
    return states.product(states.random_density(1, m, m, seed).matrix,
                          states.random_density(1, n, n, seed + 1).matrix)


def _cmd_gen(args, out, err) -> int:
    try:
        rho = _GENERATORS[args.state](args)
    except ValueError as exc:  # a parameter out of its state's range
        raise _CliError(str(exc), EXIT_USAGE) from exc
    text = states.serialize_state(rho)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc}", EXIT_CANTCREAT) from exc
    else:
        out.write(text)
    return 0


def _cmd_classify(args, out, err) -> int:
    rho = _read_state(args.file)
    basis = _resolve_basis(args, rho)
    cfg = criterion.ClassifyConfig(search=_search_config(args))
    report = criterion.classify(rho, cfg, basis_override=basis)
    payload = {
        "verdict": report.verdict.value,
        "ppt_min_eigenvalue": float(report.ppt_min_eigenvalue),
        "pairs": _pair_rows(report.pairs),
        "search": _search_row(report.search),
        "entangling_pair": report.entangling_pair,
        "certificate": _certificate_row(report.certificate),
    }
    human = [f"verdict: {report.verdict.value}"]
    if report.entangling_pair is not None:
        rep = report.pairs[report.entangling_pair - 1]
        human.append(f"entangling pair {report.entangling_pair} "
                     f"(p={rep.pair.p}, q={rep.pair.q}): a = {rep.a_value:.12g}")
    human.append(f"ppt min eigenvalue: {report.ppt_min_eigenvalue:.12g}")
    for i, rep in enumerate(report.pairs, start=1):
        lam = " ".join(f"{v:.12g}" for v in rep.lambdas)
        human.append(f"pair {i} (p={rep.pair.p}, q={rep.pair.q}): a = {rep.a_value:.12g}  "
                     f"lambdas = {lam}")
    if report.search is not None:
        human.append(f"search: best residual {report.search.best_residual:.6g} "
                     f"(k={report.search.k}, restarts={report.search.restarts_used}, "
                     f"iterations={report.search.iterations_used}, "
                     f"rejected extractions={report.search.rejected_extractions})")
    if report.certificate is not None:
        human.append(f"certificate: {report.certificate.weights.shape[0]} product terms")
    _emit(args, payload, human, out)
    return _VERDICT_EXIT[report.verdict]


def _cmd_spectrum(args, out, err) -> int:
    rho = _read_state(args.file)
    basis = _resolve_basis(args, rho)
    x = criterion.scaled_eigvecs(rho, basis_override=basis)
    reports = criterion.pair_reports(x, rho.m, rho.n)
    payload = {"eigenvalues": [float(v) for v in x.values], "pairs": _pair_rows(reports)}
    if args.json:  # a 1 x n or m x 1 state has no pairs and so no taus
        taus = criterion.pair_taus(x, rho.m, rho.n) if reports else []
        payload["taus"] = [[[f"{z.real:.17g}", f"{z.imag:.17g}"] for z in tau.reshape(-1)]
                           for tau in taus]
    human = ["pair  p  q  a_value        lambdas"]
    for i, rep in enumerate(reports, start=1):
        lam = " ".join(f"{v:.12g}" for v in rep.lambdas)
        human.append(f"{i:<5d} {rep.pair.p:<2d} {rep.pair.q:<2d} {rep.a_value:<14.6g} {lam}")
    _emit(args, payload, human, out)
    entangled = any(rep.a_value > criterion.BOUNDARY_TOL for rep in reports)
    return EXIT_ENTANGLED if entangled else EXIT_INCONCLUSIVE


def _cmd_ppt(args, out, err) -> int:
    rho = _read_state(args.file)
    value = criterion.ppt_min_eigenvalue(rho)
    _emit(args, {"ppt_min_eigenvalue": value},
          [f"ppt min eigenvalue: {value:.12g}"], out)
    return EXIT_ENTANGLED if value < -criterion.BOUNDARY_TOL else EXIT_INCONCLUSIVE


def _cmd_pairs(args, out, err) -> int:
    ops = pair_operators(args.m, args.n)
    payload = {"pairs": [{"r": i, "p": b.pair.p, "q": b.pair.q,
                          "entries": [[row, col, val] for row, col, val in b.entries]}
                         for i, b in enumerate(ops, start=1)]}
    human = []
    for i, b in enumerate(ops, start=1):
        neg = " ".join(f"({row},{col})" for row, col, val in b.entries if val < 0)
        pos = " ".join(f"({row},{col})" for row, col, val in b.entries if val > 0)
        human.append(f"B{i} (p={b.pair.p}, q={b.pair.q}): -1 @ {neg}  +1 @ {pos}")
    _emit(args, payload, human, out)
    return 0


def _cmd_decompose(args, out, err) -> int:
    rho = _read_state(args.file)
    pairs = enumerate_pairs(rho.m, rho.n) if min(rho.m, rho.n) > 1 else []
    if not 1 <= args.pair <= len(pairs):
        raise _CliError(f"pair index {args.pair} out of range 1..{len(pairs)}", EXIT_USAGE)
    pair = pairs[args.pair - 1]
    try:
        ensemble = decompose.single_pair_decomposition(rho, pair, k=args.k)
    except (decompose.PairCriterionError, decompose.PolygonInfeasibleError) as exc:
        raise _CliError(str(exc), EXIT_FAILED) from exc
    ops = pair_operators(rho.m, rho.n)
    report = decompose.verify_ensemble(ensemble, rho, ops)
    payload = {
        "pair": {"r": args.pair, "p": pair.p, "q": pair.q},
        "members": [[[f"{z.real:.17g}", f"{z.imag:.17g}"] for z in row]
                    for row in ensemble.members],
        "reconstruction_error": float(report.reconstruction_error),
        "max_pair_residual": float(report.max_pair_residual),
        "member_product_errors": [float(v) for v in report.member_product_errors],
    }
    human = [
        f"pair {args.pair} (p={pair.p}, q={pair.q}): {ensemble.members.shape[0]} members",
        f"reconstruction error: {report.reconstruction_error:.3e}",
        f"max pair residual (all pairs): {report.max_pair_residual:.3e}",
        f"max member product error: {float(np.max(report.member_product_errors)):.3e}",
    ]
    _emit(args, payload, human, out)
    return 0


def _cmd_search(args, out, err) -> int:
    rho = _read_state(args.file)
    report = search.minimize(rho, _search_config(args))
    payload = {**_search_row(report), "certificate": _certificate_row(report.certificate)}
    human = [
        f"best residual: {report.best_residual:.6g}",
        f"k: {report.k}  restarts: {report.restarts_used}  iterations: {report.iterations_used}"
        f"  rejected extractions: {report.rejected_extractions}",
        ("certificate: " + (f"{report.certificate.weights.shape[0]} product terms"
                            if report.certificate else "none")),
    ]
    _emit(args, payload, human, out)
    return EXIT_SEPARABLE if report.certificate is not None else EXIT_INCONCLUSIVE


def _cmd_emit_constraints(args, out, err) -> int:
    rho = _read_state(args.file)
    basis = _resolve_basis(args, rho)
    x = criterion.scaled_eigvecs(rho, basis_override=basis)
    cs = search.emit_constraints(x, rho.m, rho.n)
    text = search.render_constraints(cs)
    if args.json:
        payload = {"count": cs.count,
                   "pairs": [{"r": i, "p": pc.pair.p, "q": pc.pair.q,
                              "terms": [[j, jp, f"{w.real:.17g}", f"{w.imag:.17g}"]
                                        for j, jp, w in pc.terms]}
                             for i, pc in enumerate(cs.pairs, start=1)]}
        print(json.dumps(payload), file=out)
    else:
        out.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepkit",
        description="Separability analysis of bipartite quantum states")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output instead of tables")

    def add_basis(p):
        p.add_argument("--basis", choices=["paper"], default=None,
                       help="use the canonical reference eigenbasis shipped for the "
                            "built-in bound_2x4 state (pins the gauge of its "
                            "degenerate eigenspaces)")

    def add_search_flags(p):
        p.add_argument("--k", type=_int_at_least(1), default=None,
                       help="ensemble size (default: l, 2l, … up to l²; larger k is capped at l²)")
        p.add_argument("--restarts", type=_int_at_least(1), default=None,
                       help="random restarts per size")
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="base seed for restarts")
        p.add_argument("--max-iters", dest="max_iters", type=_int_at_least(1), default=None,
                       help="iteration cap per descent")

    p = sub.add_parser("gen", help="write a built-in state in the text format")
    gen_sub = p.add_subparsers(dest="state", required=True)
    g = gen_sub.add_parser("bound_2x4", help="rank-5 PPT 2x4 state (separable; see states.bound_2x4)")
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("horodecki", help="Horodecki 2x4 state rho_b (PPT; entangled "
                                             "for 0 < b < 1, bound_2x4 at b = 1)")
    g.add_argument("--b", type=float, required=True)
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("tiles", help="3x3 bound-entangled state of the Tiles UPB")
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("bell", help="maximally entangled 2x2 state")
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("werner", help="singlet mixed with white noise")
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("isotropic", help="isotropic d x d state")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--fidelity", type=float, required=True)
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("random", help="seeded random density matrix")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--rank", type=int, default=None)
    g.add_argument("--seed", type=_int_at_least(0), default=0)
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("separable", help="seeded random mixture of products")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--terms", type=int, default=4)
    g.add_argument("--seed", type=_int_at_least(0), default=0)
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("product", help="seeded random product state rho_A x rho_B")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=_int_at_least(0), default=0)
    g.add_argument("--out", default=None)

    p = sub.add_parser("classify", help="run the full pipeline on a state file")
    p.add_argument("file")
    add_json(p)
    add_basis(p)
    add_search_flags(p)

    p = sub.add_parser("spectrum", help="per-pair lambdas and a values")
    p.add_argument("file")
    add_json(p)
    add_basis(p)

    p = sub.add_parser("ppt", help="smallest eigenvalue of the partial transpose")
    p.add_argument("file")
    add_json(p)

    p = sub.add_parser("pairs", help="list the pair operators for given dims")
    p.add_argument("m", type=_int_at_least(2))
    p.add_argument("n", type=_int_at_least(2))
    add_json(p)

    p = sub.add_parser("decompose", help="single-pair annihilating ensemble")
    p.add_argument("file")
    p.add_argument("--pair", type=int, required=True, help="1-based pair index")
    p.add_argument("--k", type=int, default=None, help="member count multiplier (4k members)")
    add_json(p)

    p = sub.add_parser("search", help="numerical search for a separable decomposition")
    p.add_argument("file")
    add_json(p)
    add_search_flags(p)

    p = sub.add_parser("emit-constraints", help="export the per-pair quadratic constraints")
    p.add_argument("file")
    add_json(p)
    add_basis(p)

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "ppt": _cmd_ppt,
    "pairs": _cmd_pairs,
    "decompose": _cmd_decompose,
    "search": _cmd_search,
    "emit-constraints": _cmd_emit_constraints,
}


def run_cli(argv: list[str], out=None, err=None) -> int:
    """Parse and execute; returns the exit code instead of calling sys.exit."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, out, err)
    except _CliError as exc:
        print(f"error: {exc}", file=err)
        return exc.code
    except decompose.MemberCountError as exc:  # --k that does not fit the state
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_FAILED


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
