"""The traced run: spans around each layer's public functions.

:class:`Spans` replaces the listed methods on their classes with
wrappers that record ``[name, start, end, parent, value]`` for the
length of one traced round, and puts the originals back afterwards.
The wrappers live only in the traced process; the program itself is
not touched.  Spans stay in memory; :meth:`Spans.dump` writes them out when
the run ends.

A span's self time is its duration minus the durations of its direct
children.  The round is the root span, so the self times of every span
plus the root's own (the *unattributed remainder*: the benchmark's
load loop, the program code between wrapped calls) add up to the
round's traced wall.  :data:`SUM_TOLERANCE` is the share by which the
two may differ before the traced run reports itself incorrect.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

#: allowed |sum of self times + remainder - traced wall| / traced wall
SUM_TOLERANCE = 0.01

NAME, START, END, PARENT, VALUE = range(5)


def size(result) -> int:
    return len(result)


def route(plan) -> tuple:
    return (len(plan.order), len(plan.pruned))


def hit(result) -> bool:
    return result is not None


def ticket_id(ticket) -> int:
    return ticket.id


#: (span name, "module:Class" owner, attribute, value extractor) per
#: wrapped call.  Owners and attributes the program no longer has are
#: skipped, so a refactor leaves that layer at zero instead of breaking
#: the run.
TARGETS = [
    ("catalog.load", "repro.service.service:Service", "load_dataset", None),
    ("matching.prepare", "repro.matching.engine:Matcher", "prepare", None),
    ("indexing.build", "repro.indexing.grapes:GrapesIndex", "__init__",
     None),
    ("catalog.freeze", "repro.service.catalog:DatasetEntry", "freeze",
     None),
    ("store.restore", "repro.store.reader:StoreReader", "load_graphs",
     None),
    ("store.restore", "repro.store.reader:StoreReader", "load_index", None),
    ("service.submit", "repro.service.service:Service", "submit",
     ticket_id),
    ("cache.key", "repro.service.cache:ResultCache", "key_for", None),
    ("cache.lookup", "repro.service.cache:ResultCache", "lookup", hit),
    ("dispatcher.tick", "repro.service.dispatcher:Dispatcher", "tick", None),
    ("rewriting.apply", "repro.rewriting.rewritings:Rewriting", "apply",
     None),
    ("routing.plan", "repro.service.routing:ShardRouter", "plan", route),
    ("service.pump", "repro.service.service:Service", "pump", None),
    ("journal.append", "repro.store.journal:MutationJournal", "append",
     None),
    ("obs.stats", "repro.service.service:Service", "stats", None),
    ("bench.calibrate", "meter", "reference_ms", None),
]
for _owner in ("repro.indexing.base:FTVIndex",
               "repro.indexing.grapes:GrapesIndex",
               "repro.indexing.ggsx:GGSXIndex"):
    TARGETS.append(("indexing.filter", _owner, "filter", size))
    TARGETS.append(("indexing.mutate", _owner, "add_graph", None))
    TARGETS.append(("indexing.mutate", _owner, "remove_graph", None))
for _owner in ("repro.service.catalog:DatasetCatalog",
               "repro.service.sharding:ShardedCatalog"):
    TARGETS.append(("catalog.mutate", _owner, "add_graph", None))
    TARGETS.append(("catalog.mutate", _owner, "remove_graph", None))
for _attr in ("start", "begin", "end", "event", "finish"):
    TARGETS.append(("obs.tracer", "repro.obs.trace:Tracer", _attr, None))


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Spans:
    """In-memory span recorder over wrapped layer entry points."""

    def __init__(self) -> None:
        self.records: list = []
        self._stack: list = []
        self._installed: list = []

    def install(self) -> None:
        for name, spec, attr, value in TARGETS:
            owner = _owner(spec)
            # only where the attribute is defined, so an override and
            # the method it overrides are both seen, each once
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            setattr(owner, attr, self._wrap(name, original, value))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name, original, value):
        records, stack = self.records, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(records))
            records.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if value is not None:
                rec[VALUE] = value(result)
            return result

        return wrapper

    def open_root(self) -> None:
        """Begin a round: the root span, index 0."""
        self.records.clear()
        self._stack[:] = [0]
        self.records.append(
            ["round", time.perf_counter(), None, -1, None]
        )

    def close_root(self, end: float) -> list:
        """End the round at wall time ``end`` and return its spans,
        root first, without those that began after ``end`` (the
        load loop's report building)."""
        self._stack.clear()
        self.records[0][END] = end
        return [r for r in self.records if r[START] < end]

    def dump(self, path: str, spans: list) -> None:
        """Write one round's spans as JSON lines, ticket ids filled
        in from the nearest ``service.submit`` ancestor."""
        with open(path, "w") as fh:
            for i, rec in enumerate(spans):
                ticket = rec[VALUE] if rec[NAME] == "service.submit" else None
                p = rec[PARENT]
                while ticket is None and p >= 0:
                    if spans[p][NAME] == "service.submit":
                        ticket = spans[p][VALUE]
                    p = spans[p][PARENT]
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT],
                    "ticket": ticket,
                }) + "\n")


def summarize(spans: list) -> dict:
    """Per-name self time, outermost inclusive time and calls, and the
    sum check.  ``spans[0]`` is the root."""
    child = [0.0] * len(spans)
    for rec in spans[1:]:
        child[rec[PARENT]] += rec[END] - rec[START]
    self_time = defaultdict(float)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    values = defaultdict(list)
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        self_time[rec[NAME]] += dur - child[i]
        p = rec[PARENT]
        nested = False
        while p >= 0:
            if spans[p][NAME] == rec[NAME]:
                nested = True
                break
            p = spans[p][PARENT]
        if not nested:
            inclusive[rec[NAME]] += dur
            calls[rec[NAME]] += 1
            if rec[VALUE] is not None:
                values[rec[NAME]].append(rec[VALUE])
    wall = spans[0][END] - spans[0][START]
    remainder = self_time.pop("round")
    attributed = sum(self_time.values())
    return {
        "wall": wall,
        "remainder": remainder,
        "self": dict(self_time),
        "inclusive": dict(inclusive),
        "calls": dict(calls),
        "values": dict(values),
        "sum_error": abs(attributed + remainder - wall) / wall,
    }
