"""Command-line interface.

Exit codes: 0 a separable decomposition was certified, 1 entanglement was
proven (any Entangled* verdict of classify, or criterion's pair criterion
or partial transpose route for spectrum or ppt), 2 inconclusive, 64 usage
errors, 65 unreadable or invalid input, 70 a valid request whose operation
fails (e.g. decomposing a pair that violates the criterion), 73 an output
file that cannot be written.  Any other exception is an internal error:
"error: internal error: <type>: <message>", exit 70.

Each subcommand is a row of _COMMANDS: a handler, its help and its
argument specs.  A handler maps the parsed arguments to (JSON payload,
human lines, exit code).  run_cli reads the state file into args.rho,
resolves --basis to an eigenbasis or None, prints the payload under
--json and the lines otherwise, and maps exceptions to exit codes.
"""

import argparse
import json
import sys

import numpy as np

from . import criterion, decompose, linalg, search, states
from .pairs import enumerate_pairs, pair_operators

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_FAILED = 70
EXIT_CANTCREAT = 73

_VERDICT_EXIT = {criterion.Verdict.SEPARABLE_CERTIFIED: EXIT_SEPARABLE,
                 criterion.Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE}

_Result = tuple[dict | None, list[str], int]  # a handler's (payload, human lines, exit code)


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_state(path: str) -> states.DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not data
            return states.parse_state(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_DATA) from exc
    except states.StateFormatError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_DATA) from exc


def _resolve_basis(basis: str | None, rho) -> np.ndarray | None:
    if basis != "paper":
        return None
    reference = states.bound_2x4()
    if (rho.m, rho.n) != (2, 4) or np.linalg.norm(rho.matrix - reference.matrix) > 1e-10:
        raise _CliError("--basis paper applies only to the built-in bound_2x4 state",
                        EXIT_USAGE)
    return states.bound_2x4_basis()


def _search_config(args) -> search.SearchConfig:
    flags = {name: getattr(args, name) for name in ("restarts", "max_iters", "seed")}
    return search.SearchConfig(**{name: v for name, v in flags.items() if v is not None})


def _int_at_least(low: int):
    """An argparse type for integers >= low."""
    def int_at_least(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return int_at_least


def _re_im(z: complex) -> list[str]:
    return [states.format_float(z.real), states.format_float(z.imag)]


def _pair_rows(reports) -> list[dict]:
    return [{"p": rep.pair.p, "q": rep.pair.q,
             "lambdas": [float(v) for v in rep.lambdas],
             "a_value": float(rep.a_value)} for rep in reports]


def _pair_line(i: int, rep) -> str:
    lam = " ".join(f"{v:.12g}" for v in rep.lambdas)
    return f"pair {i} (p={rep.pair.p}, q={rep.pair.q}): a = {rep.a_value:.12g}  lambdas = {lam}"


# Each SearchReport counter once, in --json order: (attribute, JSON key, human label).
_SEARCH_COUNTERS = (
    ("k", "k", "k"),
    ("restarts_used", "restarts", "restarts"),
    ("iterations_used", "iterations", "iterations"),
    ("rejected_extractions", "rejected_extractions", "rejected extractions"),
    ("polish_attempts", "polish_attempts", "polish attempts"),
    ("range_dim", "range_dim", "dim V"),
)


def _search_row(report) -> dict | None:
    """The search's JSON fields; the residual is null when no size was walked."""
    if report is None:
        return None
    residual = float(report.best_residual)
    return {"best_residual": residual if np.isfinite(residual) else None,
            **{key: int(getattr(report, attr)) for attr, key, _ in _SEARCH_COUNTERS}}


def _search_line(report) -> str:
    """The search's human line; one that walked no size (best_u is (0, l)) says why."""
    if not np.isfinite(report.best_residual):
        return (f"no size searched: dim V = {report.range_dim} is below "
                f"the rank {report.best_u.shape[1]}")
    counts = ", ".join(f"{label}={getattr(report, attr)}" for attr, _, label in _SEARCH_COUNTERS)
    return f"best residual {report.best_residual:.6g} ({counts})"


def _certificate_row(cert) -> dict | None:
    if cert is None:
        return None
    return {"terms": int(cert.weights.shape[0]),
            "weights": [float(w) for w in cert.weights]}


def _certificate_line(cert) -> str:
    terms = "none" if cert is None else f"{cert.weights.shape[0]} product terms"
    return f"certificate: {terms}"


_INT = {"type": int, "required": True}
_FLOAT = {"type": float, "required": True}
_DIMS = (("--m", _INT), ("--n", _INT))
_SEED = (("--seed", {"type": _int_at_least(0), "default": 0}),)

# gen subcommand -> (help, flags, the state its flags describe); each also takes --out.
_GENERATORS = {
    "bound_2x4": ("rank-5 PPT 2x4 state (separable; see states.bound_2x4)", (),
                  lambda a: states.bound_2x4()),
    "horodecki": ("Horodecki 2x4 state rho_b (PPT; entangled for 0 < b < 1, bound_2x4 at b = 1)",
                  (("--b", _FLOAT),), lambda a: states.horodecki_2x4(a.b)),
    "tiles": ("3x3 bound-entangled state of the Tiles UPB", (), lambda a: states.tiles()),
    "bell": ("maximally entangled 2x2 state", (), lambda a: states.bell()),
    "werner": ("singlet mixed with white noise", (("--p", _FLOAT),),
               lambda a: states.werner_2x2(a.p)),
    "isotropic": ("isotropic d x d state", (("--d", _INT), ("--fidelity", _FLOAT)),
                  lambda a: states.isotropic(a.d, a.fidelity)),
    "random": ("seeded random density matrix",
               _DIMS + (("--rank", {"type": int, "default": None}),) + _SEED,
               lambda a: states.random_density(a.m, a.n, a.rank, a.seed)),
    "separable": ("seeded random mixture of products",
                  _DIMS + (("--terms", {"type": int, "default": 4}),) + _SEED,
                  lambda a: states.random_separable(a.m, a.n, a.terms, a.seed)),
    "product": ("seeded random product state rho_A x rho_B", _DIMS + _SEED,
                lambda a: _random_product(a.m, a.n, a.seed)),
}


def _random_product(m: int, n: int, seed: int) -> states.DensityMatrix:
    """rho_A x rho_B with seeded full-rank factors; bad dims are reported as given."""
    states._check_dims(m, n)
    return states.product(states.random_density(1, m, m, seed).matrix,
                          states.random_density(1, n, n, seed + 1).matrix)


def _cmd_gen(args) -> _Result:
    try:
        rho = _GENERATORS[args.state][2](args)
    except ValueError as exc:  # a parameter out of its state's range
        raise _CliError(str(exc), EXIT_USAGE) from exc
    text = states.serialize_state(rho)
    if not args.out:
        return None, text.splitlines(), 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {args.out}: {exc}", EXIT_CANTCREAT) from exc
    return None, [], 0


def _cmd_classify(args) -> _Result:
    cfg = criterion.ClassifyConfig(search=_search_config(args))
    report = criterion.classify(args.rho, cfg)
    payload = {
        "verdict": report.verdict.value,
        "ppt_min_eigenvalue": float(report.ppt_min_eigenvalue),
        "pairs": _pair_rows(report.pairs),
        "search": _search_row(report.search),
        "entangling_pair": report.entangling_pair,
        "certificate": _certificate_row(report.certificate),
    }
    human = [f"verdict: {report.verdict.value}"]
    if (r := report.entangling_pair) is not None:
        human.append(f"entangling {_pair_line(r, report.pairs[r - 1])}")
    human.append(f"ppt min eigenvalue: {report.ppt_min_eigenvalue:.12g}")
    human += [_pair_line(i, rep) for i, rep in enumerate(report.pairs, start=1)]
    if report.search is not None:
        human.append(f"search: {_search_line(report.search)}")
    human.append(_certificate_line(report.certificate))
    return payload, human, _VERDICT_EXIT.get(report.verdict, EXIT_ENTANGLED)


def _cmd_spectrum(args) -> _Result:
    rho = args.rho
    x = linalg.scaled_eigvecs(rho, basis_override=args.basis)
    reports = criterion.pair_reports(x, rho.m, rho.n)
    payload = {"eigenvalues": [float(v) for v in x.values], "pairs": _pair_rows(reports)}
    if args.json:
        payload["taus"] = [[_re_im(z) for z in tau.reshape(-1)]
                           for tau in search.pair_taus(x, rho.m, rho.n)]
    human = [_pair_line(i, rep) for i, rep in enumerate(reports, start=1)]
    entangled = criterion._pair_criterion(rho, x, reports, None, None) is not None
    return payload, human, EXIT_ENTANGLED if entangled else EXIT_INCONCLUSIVE


def _cmd_ppt(args) -> _Result:
    value = criterion.ppt_min_eigenvalue(args.rho)
    entangled = criterion._ppt(args.rho, None, None, value, None) is not None
    return ({"ppt_min_eigenvalue": value}, [f"ppt min eigenvalue: {value:.12g}"],
            EXIT_ENTANGLED if entangled else EXIT_INCONCLUSIVE)


def _cmd_pairs(args) -> _Result:
    ops = pair_operators(args.m, args.n)
    payload = {"pairs": [{"r": i, "p": b.pair.p, "q": b.pair.q,
                          "entries": [[row, col, val] for row, col, val in b.entries]}
                         for i, b in enumerate(ops, start=1)]}
    human = []
    for i, b in enumerate(ops, start=1):
        neg = " ".join(f"({row},{col})" for row, col, val in b.entries if val < 0)
        pos = " ".join(f"({row},{col})" for row, col, val in b.entries if val > 0)
        human.append(f"B{i} (p={b.pair.p}, q={b.pair.q}): -1 @ {neg}  +1 @ {pos}")
    return payload, human, 0


def _cmd_decompose(args) -> _Result:
    rho = args.rho
    pairs = enumerate_pairs(rho.m, rho.n)
    if not pairs:
        raise _CliError(f"the {rho.m} x {rho.n} state has no pairs", EXIT_USAGE)
    if not 1 <= args.pair <= len(pairs):
        raise _CliError(f"pair index {args.pair} out of range 1..{len(pairs)}", EXIT_USAGE)
    pair = pairs[args.pair - 1]
    members = decompose.single_pair_decomposition(rho, pair)
    report = decompose.verify_ensemble(members, rho)
    payload = {
        "pair": {"r": args.pair, "p": pair.p, "q": pair.q},
        "members": [[_re_im(z) for z in row] for row in members],
        "reconstruction_error": float(report.reconstruction_error),
        "max_pair_residual": float(report.max_pair_residual),
        "member_product_errors": [float(v) for v in report.member_product_errors],
    }
    human = [
        f"pair {args.pair} (p={pair.p}, q={pair.q}): {members.shape[0]} members",
        f"reconstruction error: {report.reconstruction_error:.3e}",
        f"max pair residual (all pairs): {report.max_pair_residual:.3e}",
        f"max member product error: {float(np.max(report.member_product_errors)):.3e}",
    ]
    return payload, human, 0


def _cmd_search(args) -> _Result:
    report = search.minimize(args.rho, _search_config(args))
    payload = {**_search_row(report), "certificate": _certificate_row(report.certificate)}
    human = [_search_line(report), _certificate_line(report.certificate)]
    return payload, human, EXIT_SEPARABLE if report.certificate is not None else EXIT_INCONCLUSIVE


def _cmd_emit_constraints(args) -> _Result:
    x = linalg.scaled_eigvecs(args.rho, basis_override=args.basis)
    cs = search.emit_constraints(x, args.rho.m, args.rho.n)
    payload = {"count": cs.count,
               "pairs": [{"r": i, "p": pc.pair.p, "q": pc.pair.q,
                          "terms": [[j, jp, *_re_im(w)] for j, jp, w in pc.terms]}
                         for i, pc in enumerate(cs.pairs, start=1)]}
    return payload, search.render_constraints(cs).splitlines(), 0


_FILE = (("file", {}),)
_JSON = (("--json", {"action": "store_true",
                     "help": "machine-readable output instead of tables"}),)
_BASIS = (("--basis", {"choices": ["paper"], "default": None,
                       "help": "use the canonical reference eigenbasis shipped for the "
                               "built-in bound_2x4 state (pins the gauge of its "
                               "degenerate eigenspaces)"}),)
_BUDGET = (
    ("--restarts", {"type": _int_at_least(1), "default": None,
                    "help": "random restarts per size"}),
    ("--seed", {"type": _int_at_least(0), "default": None, "help": "base seed for restarts"}),
    ("--max-iters", {"dest": "max_iters", "type": _int_at_least(1), "default": None,
                     "help": "iteration cap per descent"}),
)
_PAIR = (("--pair", {"type": int, "required": True, "help": "1-based pair index"}),)

# subcommand -> (handler, help, argument specs); gen's states come from _GENERATORS.
_COMMANDS = {
    "gen": (_cmd_gen, "write a built-in state in the text format", ()),
    "classify": (_cmd_classify, "run the full pipeline on a state file",
                 _FILE + _JSON + _BUDGET),
    "spectrum": (_cmd_spectrum, "per-pair lambdas and a values", _FILE + _JSON + _BASIS),
    "ppt": (_cmd_ppt, "smallest eigenvalue of the partial transpose", _FILE + _JSON),
    "pairs": (_cmd_pairs, "list the pair operators for given dims (none with a 1-d factor)",
              (("m", {"type": _int_at_least(1)}), ("n", {"type": _int_at_least(1)})) + _JSON),
    "decompose": (_cmd_decompose, "single-pair annihilating ensemble", _FILE + _PAIR + _JSON),
    "search": (_cmd_search, "numerical search for a separable decomposition",
               _FILE + _JSON + _BUDGET),
    "emit-constraints": (_cmd_emit_constraints, "export the per-pair quadratic constraints",
                         _FILE + _JSON + _BASIS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepkit",
        description="Separability analysis of bipartite quantum states")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, text, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for flag, spec in specs:
            p.add_argument(flag, **spec)
    gen_sub = sub.choices["gen"].add_subparsers(dest="state", required=True)
    for state, (text, flags, _build) in _GENERATORS.items():
        g = gen_sub.add_parser(state, help=text)
        for flag, spec in flags:
            g.add_argument(flag, **spec)
        g.add_argument("--out", default=None)
    return parser


def run_cli(argv: list[str], out=None, err=None) -> int:
    """Parse and execute; returns the exit code instead of calling sys.exit.

    print writes an out or err of None to sys.stdout or sys.stderr."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if "file" in args:
            args.rho = _read_state(args.file)
        if "basis" in args:
            args.basis = _resolve_basis(args.basis, args.rho)
        payload, human, code = args.run(args)
        if getattr(args, "json", False):
            print(json.dumps(payload), file=out)
        else:
            for line in human:
                print(line, file=out)
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=err)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_FAILED
    except Exception as exc:  # a defect, not a verdict: never exit 1
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_FAILED


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
