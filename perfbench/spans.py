"""Per-layer spans for the traced run, recorded from the benchmark's side.

Each span wraps module attributes of the program by name; the program's
files are not edited.  Private phases (the p-quotient steps) and names that
a module imported into its own namespace are wrapped where the caller
looks them up.  A span whose every target is missing is reported as
absent, with its metrics at 0.

Times are inclusive (a span's seconds contain the spans it calls) and
counted once per outermost call, so recursion is not double counted.
"""

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    seconds: str  # metric for busy time, or None
    calls: str  # metric for the call count, or None
    targets: tuple  # (module, dotted attribute) pairs
    result: tuple = None  # (metric, fn(return value) -> count)
    args: tuple = None  # (metric, fn(*args) -> count)


_TK = "covertower.twistknot"
_FF = "covertower.finfield"
_RW = "covertower.fpcore.rewriting"
_SP = "covertower.fpcore.sparse"
_PQ = "covertower.pquotient"

SPANS = (
    Span("twistknot.enumerate_s", None, ((_TK, "enumerate_epimorphisms"),),
         result=("twistknot.classes", len)),
    Span("twistknot.build_rep_s", "twistknot.build_rep_calls", ((_TK, "build_rep"),)),
    Span("twistknot.conjugate_s", None, ((_TK, "conjugate_to_base_field"),)),
    Span("finfield.quadratic_extension_s", None,
         ((_FF, "quadratic_extension"), (_TK, "quadratic_extension"))),
    Span("finfield.order_k_traces_s", None, ((_FF, "order_k_traces"), (_TK, "order_k_traces"))),
    Span("perms.surjectivity_s", "perms.surjectivity_calls",
         (("covertower.fpcore.perms", "group_order_equals"), (_TK, "group_order_equals"))),
    Span("rewriting.matrix_s", None, ((_RW, "abelianized_rewriting_matrix"),),
         result=("rewriting.matrix_nnz", lambda r: len(r[0].entries))),
    Span("sparse.rank_s", None, ((_SP, "sparse_rank_mod_p"), (_RW, "sparse_rank_mod_p"))),
    Span("sparse.dense_s", "sparse.dense_calls", ((_SP, "rank_dense_mod_p"),),
         args=("sparse.dense_cells", lambda a, *_: int(a.size))),
    Span("pquotient.consistency_s", None, ((_PQ, "_consistency_vectors"),)),
    Span("pquotient.eliminate_s", None, ((_PQ, "_eliminate"),),
         result=("pquotient.tails_kept", lambda r: r[1])),
    Span("pquotient.cover_s", None, ((_PQ, "_build_cover"),),
         result=("pquotient.tails", lambda r: len(r[1]))),
    Span("pquotient.relators_s", None, ((_PQ, "_relator_vectors"),)),
    Span(None, "pquotient.collect_calls", ((_PQ, "PcGroup.collect"),)),
    Span(None, "pquotient.inverse_calls", ((_PQ, "PcGroup.inverse"),)),
    Span("cache.append_s", None,
         (("covertower.cache", "append_q_records"), ("covertower.cli", "append_q_records"))),
    Span("cli.aggregate_s", None,
         (("covertower.cli", "aggregate_records"), (_TK, "aggregate_records"))),
)

# Metrics computed from others after a round: (metric, numerator, denominator).
RATIOS = (("twistknot.class_yield", "twistknot.classes", "twistknot.build_rep_calls"),)

COUNT_METRICS = tuple(
    m
    for s in SPANS
    for m in (s.calls, s.result and s.result[0], s.args and s.args[0])
    if m
)
SECOND_METRICS = tuple(s.seconds for s in SPANS if s.seconds)


def _resolve(module, dotted):
    """(owner, attribute name, current value), or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    """Installs the spans; `metrics()` reads what the wrapped calls did."""

    def __init__(self):
        self.values = {m: 0.0 for m in SECOND_METRICS}
        self.values.update({m: 0 for m in COUNT_METRICS})
        self.absent = []

    def install(self):
        for span in SPANS:
            found = [r for r in (_resolve(m, a) for m, a in span.targets) if r]
            if not found:
                self.absent.append(span.seconds or span.calls)
                continue
            wrappers = {}
            for owner, name, fn in found:
                # one wrapper per distinct function, shared by every alias
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(span, fn)
                setattr(owner, name, wrappers[id(fn)])
        return self

    def _wrap(self, span, fn):
        values = self.values
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            if span.calls:
                values[span.calls] += 1
            if span.args:
                values[span.args[0]] += span.args[1](*args)
            if not span.seconds:
                out = fn(*args, **kwargs)
            else:
                depth[0] += 1
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if not depth[0]:
                        values[span.seconds] += clock() - t0
            if span.result:
                values[span.result[0]] += span.result[1](out)
            return out

        return inner

    def metrics(self):
        out = dict(self.values)
        for name, num, den in RATIOS:
            out[name] = out[num] / out[den] if out[den] else 0.0
        return out


def metric_units():
    """Unit of every per-layer metric this module produces."""
    units = {m: "s" for m in SECOND_METRICS}
    units.update({m: "count" for m in COUNT_METRICS})
    units.update({name: "ratio" for name, _, _ in RATIOS})
    return units
