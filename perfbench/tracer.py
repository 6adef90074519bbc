"""Per-layer counters and times, collected from outside the program.

``Tracer.installed()`` swaps the module and class attributes through which
callers reach each public function of ``anticlique`` for wrappers that time
the call, and puts the originals back on exit.  Every wrapper is a span: its
time counts towards its own layer and is subtracted from the span that
called it, so ``*.self_ms`` is the time a layer spent outside the layers it
called.  Counters come from the values the functions return (``SearchStats``,
``MaximalFamily``, imposition outcomes), so they repeat exactly from run to
run.  The timed benchmark never installs a tracer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_now = time.perf_counter_ns


class _Span:
    __slots__ = ("ns", "self_ns", "calls")

    def __init__(self):
        self.ns = self.self_ns = self.calls = 0


class Tracer:
    def __init__(self, ac):
        """``ac`` is the imported ``anticlique`` package."""
        self.ac = ac
        self.spans: dict[str, _Span] = {}
        self.outcomes = {"Unchanged": 0, "Mutated": 0, "Split": 0}
        self.enum_outcomes = 0          # Unchanged + Mutated seen by the standard run
        self.standard_stats: list = []  # SearchStats of every standard run
        self.currentmax_stats: list = []
        self.threshold_stats: list = []
        self.families: list = []        # MaximalFamily of every maximal run
        self.expand_visited = 0
        self.output_bytes = 0
        self.stack_warnings = 0
        self._inner = [0]               # child-span time of each open span

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str) -> _Span:
        return self.spans.setdefault(name, _Span())

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` as a span; ``after(result)`` sees every result."""
        span, inner = self._span(name), self._inner

        def wrapper(*args, **kwargs):
            inner.append(0)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                child = inner.pop()
                inner[-1] += dt
                span.ns += dt
                span.self_ns += dt - child
                span.calls += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def timed_iter(self, name: str, it):
        """Yield from ``it``, each step of it a span (calls = items yielded)."""
        span, inner = self._span(name), self._inner
        while True:
            inner.append(0)
            t0 = _now()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = _now() - t0
                child = inner.pop()
                inner[-1] += dt
                span.ns += dt
                span.self_ns += dt - child
            span.calls += 1
            yield item

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self):
        ac = self.ac
        cli, enumerator, search, maximal = ac.cli, ac.enumerator, ac.search, ac.maximal
        Row, Polynomial, ContainIndex = ac.rows.Row, ac.rows.Polynomial, ac.maximal.ContainIndex
        member_count = Row.member_count
        plan = []   # (owner, attribute, replacement)

        def count_outcome(outcome):
            self.outcomes[type(outcome).__name__] += 1

        def count_enum_outcome(outcome):
            kind = type(outcome).__name__
            self.outcomes[kind] += 1
            if kind != "Split":
                self.enum_outcomes += 1

        impose = enumerator.impose
        popcheck = enumerator.anti_implication_holds
        plan += [
            (enumerator, "impose", self.timed("imposition.impose", impose, count_enum_outcome)),
            (search, "impose", self.timed("imposition.impose", impose, count_outcome)),
            (enumerator, "anti_implication_holds", self.timed("imposition.popcheck", popcheck)),
            (search, "anti_implication_holds", self.timed("imposition.popcheck", popcheck)),
            (Row, "clone", self.timed("rows.clone", Row.clone)),
            (Row, "member_count", self.timed("rows.member_count", member_count)),
            (Row, "spectrum", self.timed("rows.spectrum", Row.spectrum)),
            (Polynomial, "__add__", self.timed("rows.poly_add", Polynomial.__add__)),
            (Row, "w_max", self.timed("search.bound", Row.w_max)),
            (search, "_weighted_bound", self.timed("search.bound", search._weighted_bound)),
        ]

        expand = Row.expand

        def traced_expand(row, *args, **kwargs):
            self.expand_visited += member_count(row)
            return self.timed_iter("rows.expand", expand(row, *args, **kwargs))

        plan.append((Row, "expand", traced_expand))

        run_standard = enumerator.run_standard

        def traced_run_standard(*args, **kwargs):
            rows, stats = run_standard(*args, **kwargs)
            self.standard_stats.append(stats)
            return self.timed_iter("enumerator.run", rows), stats

        for owner in (cli, enumerator, maximal):
            plan.append((owner, "run_standard", traced_run_standard))

        currentmax = self.timed("search.currentmax", search.max_anticlique,
                                lambda res: self.currentmax_stats.append(res.stats))
        threshold = self.timed("search.threshold", search.threshold_search,
                               lambda res: self.threshold_stats.append(res[1]))
        all_max = self.timed("search.all_max", search.all_max_anticliques)
        plan += [
            (owner, attr, fn)
            for owner in (cli, search)
            for attr, fn in (("max_anticlique", currentmax),
                             ("threshold_search", threshold),
                             ("all_max_anticliques", all_max))
        ]
        plan += [
            (cli, "max_weight_anticlique",
             self.timed("search.max_weight", search.max_weight_anticlique)),
            (cli, "bipartite_options", self.timed("search.bipartite", search.bipartite_options)),
            (cli, "core", self.timed("search.core", search.core)),
            (cli, "maximal_family", self.timed("maximal.family", maximal.maximal_family,
                                               self.families.append)),
            (cli, "chromatic_with_stats", self.timed("maximal.cover", maximal.chromatic_with_stats)),
            (maximal, "row_maximal_members",
             self.timed("maximal.row_members", maximal.row_maximal_members)),
            (ContainIndex, "add", self.timed("maximal.sieve", ContainIndex.add)),
            (cli, "parse_graph", self.timed("graph.parse", cli.parse_graph)),
            (cli, "_emit", self.timed("cli.emit", cli._emit)),
            (cli, "main", self.timed("cli.main", cli.main)),
        ]

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _fn in plan]
        try:
            for owner, attr, fn in plan:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- report -------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float | int, str]]:
        """Every per-layer metric: name -> (value, unit)."""

        def ms(*names, self_only=False):
            spans = [self.spans[n] for n in names if n in self.spans]
            return sum(s.self_ns if self_only else s.ns for s in spans) / 1e6

        def calls(*names):
            return sum(self.spans[n].calls for n in names if n in self.spans)

        std, cmax, thr = self.standard_stats, self.currentmax_stats, self.threshold_stats
        search_spans = [n for n in self.spans if n.startswith("search.") and n != "search.bound"]
        return {
            "imposition.calls": (calls("imposition.impose"), "count"),
            "imposition.unchanged": (self.outcomes["Unchanged"], "count"),
            "imposition.mutated": (self.outcomes["Mutated"], "count"),
            "imposition.split": (self.outcomes["Split"], "count"),
            "imposition.ms": (ms("imposition.impose", "imposition.popcheck"), "ms"),
            "rows.clone.calls": (calls("rows.clone"), "count"),
            "rows.clone.ms": (ms("rows.clone"), "ms"),
            "rows.member_count.ms": (ms("rows.member_count"), "ms"),
            "rows.spectrum.ms": (ms("rows.spectrum"), "ms"),
            "rows.poly_add.ms": (ms("rows.poly_add"), "ms"),
            "rows.expand.ms": (ms("rows.expand"), "ms"),
            "rows.expand.visited": (self.expand_visited, "count"),
            "rows.expand.yielded": (calls("rows.expand"), "count"),
            "enumerator.finalized": (sum(s.finalized for s in std), "count"),
            "enumerator.rsp": (sum(s.rsp for s in std), "count"),
            "enumerator.peak_stack": (max((s.peak_stack for s in std), default=0), "count"),
            "enumerator.popcheck_hits": (
                sum(s.trivial_changes for s in std) - self.enum_outcomes, "count"),
            "enumerator.stack_warnings": (self.stack_warnings, "count"),
            "enumerator.self_ms": (ms("enumerator.run", self_only=True), "ms"),
            "search.rsp": (sum(s.rsp for s in cmax + thr), "count"),
            "search.deleted": (sum(s.deleted for s in cmax + thr), "count"),
            "search.improvements": (sum(s.finalized for s in cmax), "count"),
            "search.currentmax_runs": (len(cmax), "count"),
            "search.threshold_runs": (len(thr), "count"),
            "search.bound.calls": (calls("search.bound"), "count"),
            "search.bound.ms": (ms("search.bound"), "ms"),
            "search.self_ms": (ms(*search_spans, self_only=True), "ms"),
            "maximal.candidates": (sum(f.candidates for f in self.families), "count"),
            "maximal.dominated": (sum(f.dominated for f in self.families), "count"),
            "maximal.removed": (sum(f.removed for f in self.families), "count"),
            "maximal.sieve.ms": (ms("maximal.sieve"), "ms"),
            "maximal.row_members.ms": (ms("maximal.row_members"), "ms"),
            "maximal.cover.ms": (ms("maximal.cover", self_only=True), "ms"),
            "graph.parse.ms": (ms("graph.parse"), "ms"),
            "cli.emit.ms": (ms("cli.emit"), "ms"),
            "cli.output_bytes": (self.output_bytes, "bytes"),
            "cli.self_ms": (ms("cli.main", self_only=True), "ms"),
        }
