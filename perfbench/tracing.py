"""In-memory span tracing of the verifier's layers, from outside the package.

Each instrumented public function is replaced, for the duration of a
traced pass, by a wrapper that records a span ``[layer, start, end,
parent, job]``.  Functions are replaced in every ``qmcverify`` module that
binds them, which covers callers that imported the name
(``qmcverify.cli.build_representation``) as well as calls inside the
defining module.  Counts are read from the functions' public return
values, so they repeat exactly on identical inputs.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer, counter).  A counter maps a return value to
# the counts it adds.
FUNCTIONS = [
    ("qmcverify.model", "load_model", "model.load", None),
    ("qmcverify.model", "model_hash", "model.hash", None),
    ("qmcverify.oracle", "oracle_expectation", "oracle",
     lambda r: {"oracle.series_steps": r.n_used, "oracle.step_records": len(r.p_table.steps)}),
    ("qmcverify.program", "terminal_state_series", "program.terminal_series", None),
    ("qmcverify.program", "step_probabilities", "program.step_probabilities", None),
    ("qmcverify.invariant", "least_fixed_point_q", "invariant.fixed_point",
     lambda c: {"invariant.iterations": c.iterations, "invariant.qv3_samples": len(c.qv3_tail)}),
    ("qmcverify.invariant", "_qv3_tail_values", "invariant.qv3_tail", None),
    ("qmcverify.invariant", "check_conditions", "invariant.conditions", None),
    ("qmcverify.linalg", "spectral_decompose", "linalg.decompose",
     lambda s: {"linalg.nilpotent_bound": s.zero_nilpotent_index_bound,
                "linalg.clusters": int(s.cluster_ids.max()) + 1 if s.cluster_ids.size else 0}),
    ("qmcverify.spectral", "build_representation", "spectral.build", None),
    ("qmcverify.spectral", "expectation_closed_form", "spectral.closed_form", None),
    ("qmcverify.spectral", "average_running_time", "spectral.closed_form", None),
    ("qmcverify.termination", "check_program_termination", "termination.check",
     lambda v: {"termination.check_power": v.nilpotent_check_power}),
    ("qmcverify.termination", "check_scheme_termination", "termination.check",
     lambda v: {"termination.check_power": v.nilpotent_check_power}),
    ("qmcverify.report", "eigenvalue_table", "report.render", None),
    ("qmcverify.report", "simulation_table", "report.render", None),
]

# (module, class, method, layer)
METHODS = [
    ("qmcverify.model", "Model", "validate", "model.construct"),
    ("qmcverify.model", "Model", "to_program", "model.construct"),
    ("qmcverify.model", "Model", "to_scheme", "model.construct"),
    ("qmcverify.model", "Model", "observable", "model.construct"),
    ("qmcverify.report", "VerificationReport", "render_text", "report.render"),
    ("qmcverify.report", "VerificationReport", "to_json", "report.render"),
]

ROOT_LAYER = "cli"

# Self time per layer, summed over one pass of the job list.
TIME_METRICS = {
    "oracle.self_s": "oracle",
    "program.terminal_series_s": "program.terminal_series",
    "program.step_probabilities_s": "program.step_probabilities",
    "invariant.fixed_point_s": "invariant.fixed_point",
    "invariant.qv3_tail_s": "invariant.qv3_tail",
    "invariant.conditions_s": "invariant.conditions",
    "linalg.decompose_s": "linalg.decompose",
    "spectral.build_self_s": "spectral.build",
    "spectral.closed_form_s": "spectral.closed_form",
    "termination.check_s": "termination.check",
    "model.load_s": "model.load",
    "model.construct_s": "model.construct",
    "model.hash_s": "model.hash",
    "report.render_s": "report.render",
    "cli.self_s": ROOT_LAYER,
}

COUNT_METRICS = (
    "oracle.series_steps",
    "oracle.step_records",
    "invariant.iterations",
    "invariant.qv3_samples",
    "invariant.errors",
    "linalg.nilpotent_bound",
    "linalg.clusters",
    "spectral.builds",
    "termination.check_power",
    "model.validations",
)


def _module(layer: str) -> str:
    return layer.split(".")[0]


class Tracer:
    """Spans and counts of one process, kept in memory until the run ends."""

    def __init__(self):
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: spans and counts begin empty."""
        self.spans: list[list] = []
        self.counts: Counter = Counter()

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span.  An exception leaving a module's
        outermost span counts as an error of that module."""
        parent = self._stack[-1] if self._stack else None
        rec = [layer, time.perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except Exception:
            if parent is None or _module(self.spans[parent][0]) != _module(layer):
                self.counts[f"{_module(layer)}.errors"] += 1
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced

    def install(self) -> None:
        """Replace every instrumented name; undone by :meth:`uninstall`."""
        for mod_name, attr, layer, counter in FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            traced = self._wrap(layer, orig, counter)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "qmcverify" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, traced)
        for mod_name, cls_name, attr, layer in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(layer, orig, None))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def summarize(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer self time (span minus the union of its children) and
    counts of one traced pass; ``parent`` indexes into ``spans``."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    self_time: Counter = Counter()
    for i, (layer, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_time[layer] += (end - start) - covered
    out = {metric: self_time[layer] for metric, layer in TIME_METRICS.items()}
    out.update({name: counts[name] for name in COUNT_METRICS})
    out["spectral.builds"] = sum(1 for s in spans if s[0] == "spectral.build")
    out["model.validations"] = sum(
        1 for s in spans
        if s[0] == "model.construct" and (s[3] is None or spans[s[3]][0] != "model.construct")
    )
    return out


def median_times(passes: list[dict[str, float]]) -> dict[str, float]:
    return {m: statistics.median(p[m] for p in passes) for m in TIME_METRICS}
