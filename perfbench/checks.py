"""Answer checks, run outside every timed window.

Served answers are compared with the brute-force oracle in
``repro.matching.reference``.  The oracle explores query vertices in
id order, so it is handed an isomorphic copy of each query renumbered
into a connected, rarest-label-first order: the answer is invariant
under renumbering, and the search stops exploding on queries whose
first ids are far apart.
"""

from __future__ import annotations

from collections import Counter

from repro.matching.reference import ReferenceMatcher

#: digests committed in ``benchmarks/BENCH_service.json`` for workload
#: configurations this benchmark replays at seed 42
COMMITTED_RESULTS_DIGEST_YEAST = "99bbaa6775efd058"  # top-level digest
COMMITTED_ANSWERS_DIGEST_PPI = "f85cb3c4a7aacd14"  # routing.full_answers

#: embedding cap the service counts up to (``QueryOptions`` default)
MAX_EMBEDDINGS = 1000


class CheckFailed(Exception):
    """A served answer disagrees with the oracle or a pinned digest."""


def _oracle_order(query, label_freq: Counter):
    """Isomorphic copy of ``query``: each next vertex has the most
    already-placed neighbours, then the rarest label."""
    adj = query.adjacency()
    order: list = []
    placed: set = set()
    while len(order) < query.order:
        rest = [v for v in range(query.order) if v not in placed]
        linked = [v for v in rest if any(w in placed for w in adj[v])]
        v = min(
            linked or rest,
            key=lambda v: (
                -sum(1 for w in adj[v] if w in placed),
                label_freq.get(query.labels[v], 0),
                -len(adj[v]),
                v,
            ),
        )
        order.append(v)
        placed.add(v)
    perm = [0] * query.order
    for new, old in enumerate(order):
        perm[old] = new
    return query.permuted(perm)


class Oracle:
    """Reference answers over one dataset's stored graphs."""

    def __init__(self, graphs: list) -> None:
        self.graphs = graphs
        self.freq = Counter(lab for g in graphs for lab in g.labels)
        self.matcher = ReferenceMatcher()

    def nfv(self, query) -> tuple:
        """(found, embeddings up to the cap) in the single graph."""
        out = self.matcher.run(
            self.graphs[0],
            _oracle_order(query, self.freq),
            max_embeddings=MAX_EMBEDDINGS,
            count_only=True,
        )
        return out.found, out.num_embeddings

    def ftv(self, query) -> tuple:
        """Ids of the stored graphs that contain ``query``."""
        q = _oracle_order(query, self.freq)
        return tuple(
            gid
            for gid in range(len(self.graphs))
            if self.graphs[gid].order >= q.order
            and self.matcher.run(self.graphs[gid], q, max_embeddings=1).found
        )

    def check(self, kind: str, query, found, count, ids=()) -> None:
        """Raise :class:`CheckFailed` unless the served answer holds."""
        if kind == "nfv":
            want = self.nfv(query)
            got = (found, count)
        else:
            want_ids = self.ftv(query)
            want = (bool(want_ids), want_ids)
            got = (found, tuple(sorted(ids)))
        if got != want:
            raise CheckFailed(
                f"query {query.name!r}: served {got}, oracle {want}"
            )
