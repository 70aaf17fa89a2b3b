"""The four serving workloads and one measured round of each.

A round builds a fresh :class:`~repro.service.Service` (timed as
set-up), replays one seeded multi-tenant stream against it in a
closed loop (timed as serving), and hands back raw samples.  Fresh
services are cold: the prepare cache memoises on graph objects, and
every round loads new ones.

``nfv-race``, ``ftv-fanout`` and ``ftv-writes`` run in this process
through the library's own load loops (``run_closed_loop``,
``run_update_stream``); :class:`meter.Probe` times them from outside.
``http-scrape`` lives in :mod:`httpload`.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field, replace

from repro.harness import NFV_DATASETS
from repro.service import QueryOptions, Service, TicketState
from repro.service.admission import AdmissionController, TenantPolicy
from repro.service.loadgen import (
    collection_digest,
    oracle_digest,
    plan_update_stream,
    run_closed_loop,
    run_update_stream,
)
from repro.workload import (
    default_tenant_mixes,
    generate_tenant_stream,
    generate_workload,
)

from checks import (
    COMMITTED_ANSWERS_DIGEST_PPI,
    COMMITTED_RESULTS_DIGEST_YEAST,
    CheckFailed,
    Oracle,
)
from meter import Meter, Probe, timed_setup

BUDGET = 200_000
WORKERS = 4
MAX_IN_FLIGHT = 4
TENANTS = 3
SIZES = (4, 8, 12)
REPEAT_FRACTION = 0.35
#: streams in every workload's pool: one round each per cycle
POOL = 4
#: completions between quiesce points that apply mutations
MUTATE_EVERY = 16
#: every n-th request of the HTTP client is a ``GET /stats``
STATS_EVERY = 10


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    #: about how long one cycle measures on the machine the bounds
    #: were set on; a run makes ``round(seconds / cycle_s)`` cycles
    cycle_s: float
    shards: int = 1
    concurrency: int = 1
    queries: int = 200
    #: mutations woven into each stream (ftv-writes)
    mutations: int = 0
    #: served over loopback HTTP by ``repro serve --listen``
    http: bool = False

    @property
    def kind(self) -> str:
        return "nfv" if self.dataset in NFV_DATASETS else "ftv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nfv-race", "yeast", cycle_s=8.5),
        Workload("ftv-fanout", "ppi", cycle_s=10.0, shards=2,
                 concurrency=2),
        Workload("ftv-writes", "ppi", cycle_s=18.0, shards=2,
                 concurrency=2, mutations=12),
        Workload("http-scrape", "yeast", cycle_s=15.0, concurrency=2,
                 http=True),
    )
}


def cycles_for(wl: Workload, seconds: float) -> int:
    """Whole cycles over the stream pool that fill about ``seconds``.

    A fixed count, not a deadline: every run of a workload measures the
    same rounds, whatever the machine's speed at the time."""
    return max(1, round(seconds / wl.cycle_s))


def make_streams(wl: Workload, graphs: list, k: int, order=None):
    """(mixes, per-tenant streams) of exactly ``wl.queries`` queries:
    the ``k``-th stream of the workload's fixed pool, built the way
    ``repro bench-serve`` builds one with ``--seed k``.

    With ``order`` (a seed), each tenant's queries arrive in a seeded
    order.  The queries themselves, and so the work they hold and how
    often they repeat, stay those of the pool.
    """
    mixes = default_tenant_mixes(
        TENANTS, -(-wl.queries // TENANTS), sizes=SIZES,
        repeat_fraction=REPEAT_FRACTION,
    )
    streams = {
        m.tenant: generate_tenant_stream(graphs, m, seed=k)
        for m in mixes
    }
    excess = sum(len(s) for s in streams.values()) - wl.queries
    for tenant in sorted(streams, reverse=True):
        while excess > 0 and len(streams[tenant]) > 1:
            streams[tenant].pop()
            excess -= 1
    if order is not None:
        rng = random.Random(f"perfbench:{order}:{k}")
        for tenant in sorted(streams):
            rng.shuffle(streams[tenant])
    return mixes, streams


def build_service(wl: Workload, store=None, journal=None) -> Service:
    """Cold construction plus ``load_dataset`` — the timed set-up."""
    service = Service(
        workers=WORKERS,
        admission=AdmissionController(
            default_policy=TenantPolicy(
                max_in_flight=MAX_IN_FLIGHT, step_budget=BUDGET
            )
        ),
        shards=wl.shards,
        store=store,
        journal=journal,
    )
    service.load_dataset(wl.dataset, scale="default")
    return service


def set_policies(service: Service, mixes) -> None:
    for mix in mixes:
        service.admission.set_policy(
            mix.tenant,
            TenantPolicy(
                max_in_flight=MAX_IN_FLIGHT,
                step_budget=BUDGET,
                weight=mix.weight,
            ),
        )


@dataclass
class Round:
    """Raw samples of one round (times in reference-speed seconds
    unless named ``raw``)."""

    stream: int
    setup_s: float
    setup_raw_s: float
    serve_s: float
    serve_raw_s: float
    completed: int
    latency_s: list
    latency_steps: list
    write_latency_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    refs_ms: list = field(default_factory=list)
    #: ticket id -> (wall latency s, virtual latency steps)
    pairs: dict = field(default_factory=dict)
    #: what the checks and the traced run read after the round
    ops: list = field(default_factory=list)
    service: object = None
    report: object = None
    probe: object = None
    spans: list = None


class Workdir:
    """Scratch space inside the checkout (stores and journals)."""

    def __init__(self) -> None:
        base = os.path.join(os.getcwd(), ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(dir=base)
        self._n = 0

    def fresh(self, prefix: str) -> str:
        self._n += 1
        return os.path.join(self.path, f"{prefix}{self._n}")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class InProcess:
    """Rounds of an in-process workload."""

    def __init__(self, wl: Workload, seed: int, workdir: Workdir) -> None:
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.store = None
        if wl.mutations:
            self.store = self._prepare_store()

    def _prepare_store(self) -> str:
        """Warm the collection once and persist it, before any timing."""
        from repro.service.sharding import ShardedCatalog
        from repro.store import StoreWriter

        catalog = ShardedCatalog(num_shards=self.wl.shards)
        catalog.load(self.wl.dataset, scale="default")
        root = self.workdir.fresh("store")
        StoreWriter(root).write_catalog(catalog)
        return root

    def run_round(self, k: int, cycle: int, spans=None) -> Round:
        """Stream ``k`` in the arrival order of ``cycle``; with
        ``spans`` (the traced run) the round's set-up and serving
        window is the root span."""
        wl = self.wl
        gc.collect()
        journal = self.workdir.fresh("journal") if wl.mutations else None
        if spans is not None:
            spans.open_root()
        service, raw, setup, refs = timed_setup(
            lambda: build_service(wl, store=self.store, journal=journal)
        )
        entry = service.catalog.get(wl.dataset)
        mixes, streams = make_streams(
            wl, entry.graphs, k, order=f"{self.seed}:{cycle}"
        )
        set_policies(service, mixes)
        ops = []
        if wl.mutations:
            base = [entry.graphs[g] for g in entry.live_graph_ids()]
            ops = plan_update_stream(base, wl.mutations, seed=k)
        meter = Meter()
        probe = Probe(service, meter)
        meter.begin()
        if wl.mutations:
            report = run_update_stream(
                service, wl.dataset, streams, ops,
                options=QueryOptions(), concurrency=wl.concurrency,
                mutate_every=MUTATE_EVERY, verify_oracle=False,
            )
        else:
            report = run_closed_loop(
                service, wl.dataset, streams,
                options=QueryOptions(), concurrency=wl.concurrency,
            )
        meter.close(probe.last)
        rnd = self._collect(k, service, report, probe, meter)
        if spans is not None:
            rnd.spans = spans.close_root(probe.last_wall)
        rnd.setup_s, rnd.setup_raw_s = setup, raw
        rnd.refs_ms = refs + meter.refs
        rnd.ops = ops
        return rnd

    def _collect(self, k, service, report, probe, meter) -> Round:
        latency = probe.latencies_s()
        done = [t for t in report.tickets if t.state is TicketState.DONE]
        failed = sum(
            1
            for t in report.tickets
            if t.state is not TicketState.DONE or t.result.killed
        )
        writes = probe.write_latencies_s()
        rejected = sum(1 for m, _, _ in probe.mutations if m.rejected)
        return Round(
            stream=k,
            setup_s=0.0,
            setup_raw_s=0.0,
            serve_s=meter.norm_seconds,
            serve_raw_s=meter.raw_seconds,
            completed=len(done),
            latency_s=[latency[t.id] for t in done],
            latency_steps=[t.latency or 0 for t in done],
            write_latency_s=writes,
            attempted=len(report.tickets) + len(probe.mutations),
            failed=failed + rejected,
            pairs={t.id: (latency[t.id], t.latency or 0) for t in done},
            service=service,
            report=report,
            probe=probe,
        )

    # ------------------------------------------------------------------
    # answer checks (outside the timed window)
    # ------------------------------------------------------------------

    def check(self, rnd: Round) -> None:
        wl = self.wl
        service, report = rnd.service, rnd.report
        if wl.mutations:
            self._check_oracle_digest(service, rnd.ops, rnd.stream)
            return
        oracle = Oracle(service.catalog.get(wl.dataset).graphs)
        for t in report.completed:
            if t.cache_hit or t.coalesced:
                continue
            r = t.result
            oracle.check(
                wl.kind, t.query, r.found, r.num_embeddings,
                r.matching_ids,
            )

    def _check_oracle_digest(self, service, ops, k) -> None:
        """The served collection equals a from-scratch rebuild."""
        entry = service.catalog.get(self.wl.dataset)
        live = [entry.graphs[g] for g in entry.live_graph_ids()]
        added = [op.graph for op in ops if op.graph is not None]
        probes = [q.graph for q in generate_workload(live, 6, 3, seed=k)]
        probes += [
            q.graph for q in generate_workload(added, 4, 3, seed=k + 1)
        ]
        served = collection_digest(service, self.wl.dataset, probes)
        oracle = oracle_digest(service, self.wl.dataset, probes)
        if served != oracle:
            raise CheckFailed(
                f"collection digest {served[:16]} != oracle {oracle[:16]}"
            )

    def check_committed(self) -> None:
        """At ``--seed 42``, replay the committed ``BENCH_service.json``
        configuration this workload extends (stream 42 in generated order)
        and
        compare its digest with the committed constant."""
        wl = self.wl
        if self.seed != 42:
            return
        if wl.name == "nfv-race":
            committed, want = wl, COMMITTED_RESULTS_DIGEST_YEAST
        elif wl.name == "ftv-fanout":
            # the routed sharding section serves 60 queries
            committed = replace(wl, queries=60)
            want = COMMITTED_ANSWERS_DIGEST_PPI
        else:
            return
        service = build_service(committed)
        mixes, streams = make_streams(
            committed, service.catalog.get(wl.dataset).graphs, 42
        )
        set_policies(service, mixes)
        report = run_closed_loop(
            service, wl.dataset, streams, options=QueryOptions(),
            concurrency=committed.concurrency,
        )
        got = report.digest if wl.name == "nfv-race" else report.answers
        if got != want:
            raise CheckFailed(f"digest {got} != committed {want}")
