"""``--trace 1``: per-layer metrics from alternating rounds.

Each stream is served twice: once untraced, once with :class:`Spans`
installed.  The traced rounds give the layer metrics (the median over
rounds of each); the untraced ones give the diagnostics that need a
clean clock: the reference loop's speed, the tracing overhead, raw
(unnormalised) wall figures and the wall/virtual rank correlation.

Layer times are scaled to reference speed with the round's median
reference reading, like the end-to-end metrics.
"""

from __future__ import annotations

import os
import statistics

from calib import NOMINAL_MS
from checks import CheckFailed
from meter import percentile
from tracing import SUM_TOLERANCE, Spans, summarize
from workloads import POOL, cycles_for
from repro.service import TicketState

#: unit of every per-layer metric
UNITS = {
    "catalog.load_s": "s",
    "matching.prepare_s": "s",
    "indexing.build_s": "s",
    "catalog.freeze_s": "s",
    "store.restore_s": "s",
    "service.submit_us": "us",
    "cache.key_us": "us",
    "cache.hit_rate": "ratio",
    "dispatcher.tick_s": "s",
    "race.ns_per_step": "ns",
    "race.useful_share": "ratio",
    "rewriting.apply_us": "us",
    "indexing.filter_us": "us",
    "indexing.candidates_per_query": "count",
    "indexing.filter_precision": "ratio",
    "routing.plan_us": "us",
    "routing.pruned_share": "ratio",
    "service.fanout_waste_share": "ratio",
    "service.pump_self_s": "s",
    "catalog.mutate_ms": "ms",
    "indexing.mutate_ms": "ms",
    "journal.append_ms": "ms",
    "obs.stats_ms": "ms",
    "obs.trace_us_per_query": "us",
    "obs.server_overhead_ms": "ms",
    "write_p50_ms": "ms",
    "error_rate": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.sum_error": "ratio",
    "bench.reference_ms": "ms",
    "bench.trace_overhead": "ratio",
    "latency.wall_virtual_spearman": "ratio",
    "raw.setup_s": "s",
    "raw.qps": "1/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ranks(values: list) -> list:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for t in order[i:j + 1]:
            ranks[t] = (i + j) / 2
        i = j + 1
    return ranks


def spearman(xs: list, ys: list) -> float:
    """Rank correlation with tied ranks averaged."""
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = (sum((a - mx) ** 2 for a in rx)
           * sum((b - my) ** 2 for b in ry)) ** 0.5
    return _ratio(cov, var)


def _raced(rnd) -> list:
    """(steps, matching ids) of every answer that ran its own race."""
    if isinstance(rnd.report, list):  # http replies
        return [
            (p["result"]["steps"], p["result"]["matching_ids"])
            for g, status, p, _ in rnd.report
            if g is not None and status == 200
            and not p["result"]["from_cache"]
            and not p["result"]["coalesced"]
        ]
    return [
        (t.result.steps, t.result.matching_ids)
        for t in rnd.report.tickets
        if t.state is TicketState.DONE and not t.cache_hit
        and not t.coalesced
    ]


def layer_metrics(rnd) -> dict:
    """Per-layer numbers of one traced round."""
    s = summarize(rnd.spans)
    if s["sum_error"] > SUM_TOLERANCE:
        raise CheckFailed(
            f"self times + remainder miss the traced wall by "
            f"{s['sum_error']:.2%} (tolerance {SUM_TOLERANCE:.0%})"
        )
    f = NOMINAL_MS / statistics.median(rnd.refs_ms)
    inc, calls, vals = s["inclusive"], s["calls"], s["values"]

    def total(name: str) -> float:
        return inc.get(name, 0.0) * f

    def mean(name: str, scale: float) -> float:
        return _ratio(total(name) * scale, calls.get(name, 0))

    service = rnd.service
    work = service.dispatcher.work_steps
    raced = _raced(rnd)
    candidates = sum(vals.get("indexing.filter", ()))
    routes = vals.get("routing.plan", ())
    lookups = vals.get("cache.lookup", ())
    m = {
        "catalog.load_s": total("catalog.load"),
        "matching.prepare_s": total("matching.prepare"),
        "indexing.build_s": total("indexing.build"),
        "catalog.freeze_s": total("catalog.freeze"),
        "store.restore_s": total("store.restore"),
        "service.submit_us": mean("service.submit", 1e6),
        "cache.key_us": mean("cache.key", 1e6),
        "cache.hit_rate": _ratio(sum(lookups), len(lookups)),
        "dispatcher.tick_s": total("dispatcher.tick"),
        "race.ns_per_step": _ratio(total("dispatcher.tick") * 1e9, work),
        "race.useful_share": _ratio(sum(st for st, _ in raced), work),
        "rewriting.apply_us": mean("rewriting.apply", 1e6),
        "indexing.filter_us": mean("indexing.filter", 1e6),
        "indexing.candidates_per_query": (
            _ratio(candidates, len(raced)) if candidates else 0.0
        ),
        "indexing.filter_precision": _ratio(
            sum(len(ids) for _, ids in raced), candidates
        ),
        "routing.plan_us": mean("routing.plan", 1e6),
        "routing.pruned_share": _ratio(
            sum(p for _, p in routes), sum(o + p for o, p in routes)
        ),
        "service.fanout_waste_share": _ratio(service.fanout_waste, work),
        "service.pump_self_s": (
            total("service.pump") - total("dispatcher.tick")
        ),
        "catalog.mutate_ms": mean("catalog.mutate", 1e3),
        "indexing.mutate_ms": mean("indexing.mutate", 1e3),
        "journal.append_ms": mean("journal.append", 1e3),
        "obs.stats_ms": mean("obs.stats", 1e3),
        "obs.trace_us_per_query": _ratio(
            total("obs.tracer") * 1e6, rnd.completed
        ),
        "obs.server_overhead_ms": 0.0,
        "trace.unattributed_share": s["remainder"] / s["wall"],
        "trace.sum_error": s["sum_error"],
    }
    if isinstance(rnd.report, list):
        in_service = rnd.probe.latencies_s()
        m["obs.server_overhead_ms"] = statistics.median(
            (client - in_service[tid]) * 1e3
            for tid, (client, _) in rnd.pairs.items()
            if tid in in_service
        )
    return m


def traced_run(wl, seed: int, seconds: float, workdir) -> tuple:
    if wl.http:
        from httpload import HttpRounds

        runner = HttpRounds(wl, seed, workdir, in_process=True)
    else:
        from workloads import InProcess

        runner = InProcess(wl, seed, workdir)
    spans = Spans()
    plain, traced, layers = [], [], []
    last_spans = None
    # each stream is served twice per cycle: half the cycles fill
    # the same time as an untraced run
    for cycle in range(max(1, cycles_for(wl, seconds) // 2)):
        for k in range(POOL):
            rnd = runner.run_round(k, cycle)
            if cycle == 0:
                runner.check(rnd)
            plain.append(rnd)
            spans.install()
            try:
                rnd = runner.run_round(k, cycle, spans=spans)
            finally:
                spans.uninstall()
            layers.append(layer_metrics(rnd))
            last_spans = rnd.spans
            for r in (plain[-1], rnd):
                r.service = r.report = r.probe = r.spans = None
            traced.append(rnd)
    runner.check_committed()
    out = os.path.join(os.getcwd(), ".perfbench_traces")
    os.makedirs(out, exist_ok=True)
    spans.dump(os.path.join(out, f"{wl.name}-seed{seed}.jsonl"), last_spans)

    metrics = {
        name: statistics.median(m[name] for m in layers)
        for name in layers[0]
    }
    writes = [x for r in plain for x in r.write_latency_s]
    pairs = [p for r in plain for p in r.pairs.values()]

    def qps(rounds, raw=False):
        return _ratio(
            sum(r.completed for r in rounds),
            sum(r.serve_raw_s if raw else r.serve_s for r in rounds),
        )

    metrics.update({
        "write_p50_ms": percentile(writes, 50) * 1e3 if writes else 0.0,
        "error_rate": _ratio(
            sum(r.failed for r in plain), sum(r.attempted for r in plain)
        ),
        "bench.reference_ms": statistics.median(
            x for r in plain + traced for x in r.refs_ms
        ),
        "bench.trace_overhead": _ratio(qps(plain), qps(traced)) - 1,
        "latency.wall_virtual_spearman": spearman(
            [a for a, _ in pairs], [b for _, b in pairs]
        ),
        "raw.setup_s": statistics.median(r.setup_raw_s for r in plain),
        "raw.qps": qps(plain, raw=True),
    })
    return plain + traced, {
        k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS
    }
