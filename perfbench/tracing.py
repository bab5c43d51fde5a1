"""Per-layer tracing of sepkit from outside the library.

``Tracer.install`` replaces public sepkit functions, in every module
namespace they are called through, with wrappers that record a span
(label, start, end, parent, operation) per call; ``uninstall`` puts the
originals back.  Calls made once per pair or once per search iteration
are too many to keep as spans, so they are folded into a count,
inclusive time and self time per operation instead.  Self time is a
call's duration minus the part covered by wrapped calls inside it.

The layers are sepkit's modules; a wrapper's label is
``<module>.<function>`` of the function it wraps, whichever module
calls it.
"""

import statistics
import time

# (namespace module, attribute, label, folded).  A function imported by
# name into another module is wrapped there too, because that module
# looks the name up in its own globals.
WRAPPED = [
    ("states", "parse_state", "states.parse_state", False),
    ("states", "density_matrix", "states.density_matrix", False),
    ("criterion", "pair_operators", "pairs.build", False),
    ("search", "pair_operators", "pairs.build", False),
    ("decompose", "build_pair_operator", "pairs.build", False),
    ("criterion", "hermitian_eig", "linalg.hermitian_eig", False),
    ("criterion", "singular_values", "linalg.singular_values", True),
    ("decompose", "takagi", "linalg.takagi", True),
    ("search", "reorthonormalize", "linalg.reorthonormalize", True),
    ("search", "random_orthonormal_columns", "linalg.random_orthonormal_columns", True),
    ("criterion", "classify", "criterion.classify", False),
    ("criterion", "scaled_eigvecs", "criterion.scaled_eigvecs", False),
    ("search", "scaled_eigvecs", "criterion.scaled_eigvecs", False),
    ("decompose", "scaled_eigvecs", "criterion.scaled_eigvecs", False),
    ("criterion", "tau_matrix", "criterion.tau_matrix", True),
    ("search", "tau_matrix", "criterion.tau_matrix", True),
    ("decompose", "tau_matrix", "criterion.tau_matrix", True),
    ("criterion", "pair_spectrum", "criterion.pair_spectrum", True),
    ("criterion", "pair_reports", "criterion.pair_reports", False),
    ("criterion", "ppt_min_eigenvalue", "criterion.ppt_min_eigenvalue", False),
    ("criterion", "pure_product_check", "criterion.pure_product_check", False),
    ("decompose", "single_pair_decomposition", "decompose.single_pair_decomposition", False),
    ("search", "minimize", "search.minimize", False),
    ("search", "joint_residual", "search.joint_residual", True),
    ("search", "residual_gradient", "search.residual_gradient", True),
    ("search", "extract_certificate", "search.extract_certificate", False),
    ("search", "certificate_from_members", "search.certificate_from_members", False),
    ("search", "check_certificate", "search.check_certificate", False),
]

LAYERS = ("states", "pairs", "linalg", "criterion", "decompose", "search")

# Calls whose first argument is a point of the search: a retraction
# output passed to one of these a second time (after its own objective
# evaluation) is a step the line search accepted.
_USES_POINT = {"search.joint_residual", "search.residual_gradient",
               "search.extract_certificate"}
_RETRACTION = "linalg.reorthonormalize"


class Tracer:
    """Span recorder; one per traced run, installed only while tracing."""

    def __init__(self, sepkit_modules: dict):
        self._modules = sepkit_modules
        self._saved = []
        self._stack = []
        self.spans = []        # (label, start, end, self_s, op, parent span index or -1)
        self.folded = []       # per op: {label: [calls, inclusive_s, self_s]}
        self.errors = {}       # label -> exceptions raised through the wrapper
        self.retractions = 0
        self.accepted_steps = 0
        self._last_point = None
        self._point_uses = 0
        self.searches = []     # per op that reached the search: (iterations, restarts, certified)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, label, folded in WRAPPED:
            mod = self._modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, label, folded))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def _wrap(self, fn, label, folded):
        clock = time.perf_counter
        watch = label in _USES_POINT
        retraction = label == _RETRACTION

        def wrapper(*args, **kwargs):
            if watch and args:
                self._use_point(args[0])
            self._open(label, folded, clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[label] = self.errors.get(label, 0) + 1
                self._close(clock())
                raise
            self._close(clock())
            if retraction:
                self.retractions += 1
                self._last_point, self._point_uses = out, 0
            return out

        wrapper.__wrapped__ = fn
        wrapper.perfbench_label = label
        return wrapper

    def _use_point(self, point) -> None:
        if point is self._last_point:
            self._point_uses += 1
            if self._point_uses == 2:
                self.accepted_steps += 1

    def _open(self, label: str, folded: bool, start: float) -> None:
        parent = self._stack[-1][4] if self._stack else -1
        if folded:
            anchor = parent
        else:
            anchor = len(self.spans)
            self.spans.append(None)
        self._stack.append([label, folded, start, 0.0, anchor, parent])

    def _close(self, end: float) -> None:
        label, folded, start, child, anchor, parent = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        if folded:
            rec = self.folded[-1].setdefault(label, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child
        else:
            self.spans[anchor] = (label, start, end, dur - child, len(self.folded) - 1, parent)

    # -- per-operation bookkeeping ------------------------------------------

    def begin_op(self) -> None:
        self.folded.append({})
        self._last_point = None

    def end_op(self, report) -> None:
        if report.search is not None:
            self.searches.append((report.search.iterations_used,
                                  report.search.restarts_used,
                                  report.search.certificate is not None))

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict:
        """label -> [calls, inclusive seconds, self seconds] over the whole run."""
        out = {}
        for label, start, end, self_s, _op, _parent in self.spans:
            rec = out.setdefault(label, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += self_s
        for per_op in self.folded:
            for label, (calls, incl, self_s) in per_op.items():
                rec = out.setdefault(label, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += incl
                rec[2] += self_s
        return out

    def metrics(self) -> dict:
        """Per-layer metrics.

        Times (``_ms``) and counts are means per operation; ``_ms`` of a
        function is its inclusive time, except ``states.parse_ms`` and the
        ``self_ms`` figures, which exclude wrapped calls inside.  Ratios,
        ``search.us_per_iter`` and ``search.iters_to_cert`` (a median over
        certified searches) are over the whole run; a ratio with nothing to
        divide by is 0.
        """
        ops = max(len(self.folded), 1)
        tot = self.totals()

        def calls(label):
            return tot.get(label, [0, 0.0, 0.0])[0] / ops

        def incl_ms(label):
            return tot.get(label, [0, 0.0, 0.0])[1] * 1e3 / ops

        def self_ms(label):
            return tot.get(label, [0, 0.0, 0.0])[2] * 1e3 / ops

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(rec[2] for label, rec in tot.items()
                                          if label.startswith(layer + ".")) * 1e3 / ops
        out["states.parse_ms"] = self_ms("states.parse_state")
        out["states.validate_ms"] = incl_ms("states.density_matrix")
        out["states.parse_calls"] = calls("states.parse_state")
        out["pairs.build_ms"] = incl_ms("pairs.build")
        out["criterion.eig_ms"] = incl_ms("criterion.scaled_eigvecs")
        out["criterion.tau_ms"] = incl_ms("criterion.tau_matrix")
        out["criterion.spectrum_ms"] = incl_ms("criterion.pair_spectrum")
        out["criterion.pair_reports_ms"] = incl_ms("criterion.pair_reports")
        out["criterion.ppt_ms"] = incl_ms("criterion.ppt_min_eigenvalue")
        out["criterion.pairs_evaluated"] = calls("criterion.pair_spectrum")
        out["criterion.classify_self_ms"] = self_ms("criterion.classify")
        out["decompose.single_pair_ms"] = incl_ms("decompose.single_pair_decomposition")
        out["decompose.calls"] = calls("decompose.single_pair_decomposition")
        out["linalg.eig_ms"] = incl_ms("linalg.hermitian_eig")
        out["linalg.svd_ms"] = incl_ms("linalg.singular_values")
        out["linalg.takagi_ms"] = incl_ms("linalg.takagi")
        out["linalg.qr_ms"] = incl_ms(_RETRACTION)
        out["linalg.qr_calls"] = calls(_RETRACTION)
        out["linalg.rank_deficient"] = self.errors.get(_RETRACTION, 0) / ops

        iterations = sum(s[0] for s in self.searches)
        certified = [s[0] for s in self.searches if s[2]]
        attempts = tot.get("search.extract_certificate", [0])[0]
        minimize_s = tot.get("search.minimize", [0, 0.0])[1]
        out["search.minimize_ms"] = incl_ms("search.minimize")
        out["search.restarts"] = sum(s[1] for s in self.searches) / ops
        out["search.iterations"] = iterations / ops
        out["search.us_per_iter"] = minimize_s * 1e6 / iterations if iterations else 0.0
        out["search.objective_evals"] = calls("search.joint_residual")
        out["search.objective_ms"] = incl_ms("search.joint_residual")
        out["search.gradient_evals"] = calls("search.residual_gradient")
        out["search.gradient_ms"] = incl_ms("search.residual_gradient")
        out["search.step_accept_ratio"] = (self.accepted_steps / self.retractions
                                           if self.retractions else 0.0)
        out["search.extract_attempts"] = attempts / ops
        out["search.extract_rejects"] = (attempts - len(certified)) / ops
        out["search.extract_yield"] = len(certified) / attempts if attempts else 0.0
        out["search.iters_to_cert"] = statistics.median(certified) if certified else 0.0
        out["search.check_ms"] = incl_ms("search.check_certificate")
        out["trace.spans_per_op"] = len(self.spans) / ops
        return out
