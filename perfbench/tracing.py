"""Spans around the calls into each layer of the package, for the traced run.

A wrapper is installed on every name through which one module (or the
benchmark itself) reaches another layer's public function, for example
``seaweeds.counting.component_counts`` or ``seaweeds.cli.brute_table``.
Calls a module makes to its own helpers keep their original binding, so
private work such as ``_child_moves`` stays inside its module's span.

Each span records its name, parent span, start and end; a generator's
span covers one ``next()``.  Spans are kept in flat arrays during a pass
and summarised after it: busy time is the sum of a name's span lengths,
self time is busy time minus the time its child spans cover.  There is
one thread and no queue, so no layer ever waits on another.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

from seaweeds import cli, compositions, counting, meander, parabolic_words, seaweed_words

# (span name, is a generator, the (namespace, attribute) bindings it covers).
# Only bindings that some workload reaches are listed.
BINDINGS = (
    ("compositions.iter_compositions", True, ((counting, "iter_compositions"),)),
    ("compositions.parse", False, ((compositions.Composition, "parse"),)),
    ("meander.partner_array", False, ((counting, "partner_array"),)),
    ("meander.component_counts", False, ((counting, "component_counts"),)),
    ("meander.index", False, (
        (meander, "index_seaweed"), (meander, "index_parabolic"), (meander, "is_frobenius"),
    )),
    ("seaweed_words.generate_frobenius", True,
     ((counting, "generate_frobenius"), (cli, "generate_frobenius"))),
    ("parabolic_words.generate_frobenius_p", True,
     ((counting, "generate_frobenius_p"), (cli, "generate_frobenius_p"))),
    ("seaweed_words.generate_deficiency", True, ((counting, "generate_deficiency"),)),
    ("parabolic_words.generate_deficiency_p", True, ((counting, "generate_deficiency_p"),)),
    ("seaweed_words.factorize", False, ((seaweed_words, "factorize"),)),
    ("parabolic_words.factorize_p", False, ((parabolic_words, "factorize_p"),)),
    ("counting.brute_table", False, ((cli, "brute_table"),)),
    ("counting.generated_table", False,
     ((counting, "generated_table"), (cli, "generated_table"))),
    ("counting.deficiency_table", False, ((counting, "deficiency_table"),)),
    ("counting.fit_polynomial", False, ((counting, "fit_polynomial"),)),
    ("counting.verify_published_polynomials", False,
     ((counting, "verify_published_polynomials"),)),
    ("cli.main", False, ((cli, "main"),)),
)


def _observe_component_counts(counters, args, result):
    if result == (0, 1):
        counters["meander.component_counts.hits"] += 1


def _observe_index(counters, args, result):
    counters["meander.index.vertices"] += args[0].total


def _observe_factorize(counters, args, result):
    if result is not None:
        counters["seaweed_words.factorize.letters"] += len(result)


def _observe_factorize_p(counters, args, result):
    if result is not None:
        counters["parabolic_words.factorize_p.letters"] += len(result[1])


def _max_word_len(name):
    key = name + ".max_word_len"

    def observe(counters, args, item):
        counters[key] = max(counters[key], len(item[0]))

    return observe


# Counts taken at the boundary, per call (or per item for generators).
OBSERVERS = {
    "meander.component_counts": _observe_component_counts,
    "meander.index": _observe_index,
    "seaweed_words.factorize": _observe_factorize,
    "parabolic_words.factorize_p": _observe_factorize_p,
    "seaweed_words.generate_frobenius": _max_word_len("seaweed_words.generate_frobenius"),
    "parabolic_words.generate_frobenius_p": _max_word_len("parabolic_words.generate_frobenius_p"),
}


class Tracer:
    """In-memory span recorder; :meth:`install` wraps every binding above."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._reset_spans()

    def _reset_spans(self):
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.open[-1])
        self.end.append(0.0)
        self.open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.open.pop()

    def wrap_call(self, name, fn):
        nid, observe = self._register(name)

        def traced(*args, **kwargs):
            idx = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        nid, observe = self._register(name)
        items_key = name + ".items"

        def traced(*args, **kwargs):
            it = None
            while True:
                idx = self._begin(nid)
                try:
                    if it is None:
                        it = fn(*args, **kwargs)
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._finish(idx)
                self.counters[items_key] += 1
                if observe is not None:
                    observe(self.counters, args, item)
                yield item

        return traced

    def _register(self, name):
        self.names.append(name)
        return len(self.names) - 1, OBSERVERS.get(name)

    def install(self) -> None:
        """Replace every binding in BINDINGS by its traced wrapper, for good."""
        for name, is_generator, targets in BINDINGS:
            wrap = self.wrap_generator if is_generator else self.wrap_call
            for namespace, attribute in targets:
                traced = wrap(name, getattr(namespace, attribute))
                if isinstance(namespace, type):
                    traced = staticmethod(traced)
                setattr(namespace, attribute, traced)

    def take(self) -> dict[str, float]:
        """Summarise and drop the spans and counters recorded so far.

        Returns ``<span>.calls``, ``<span>.busy_s`` and ``<span>.self_s``
        for every span name, plus the boundary counters.
        """
        child = defaultdict(float)
        summary: dict[str, float] = defaultdict(float)
        names, parent, start, end = self.names, self.parent, self.start, self.end
        # children end before their parent, so a reverse scan sees them first
        for idx in range(len(start) - 1, -1, -1):
            duration = end[idx] - start[idx]
            name = names[self.name_id[idx]]
            summary[name + ".calls"] += 1
            summary[name + ".busy_s"] += duration
            summary[name + ".self_s"] += duration - child.pop(idx, 0.0)
            if parent[idx] >= 0:
                child[parent[idx]] += duration
        summary.update(self.counters)
        self.counters.clear()
        self._reset_spans()
        return dict(summary)
