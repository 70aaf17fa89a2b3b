"""``http-scrape``: a closed-loop HTTP client against the front door.

The system under test is ``repro serve --listen`` in its own process,
started fresh each round; set-up is the time from launching it until
its first ``GET /healthz`` answers.  One client process keeps at most
:data:`CONNECTIONS` requests in flight, each on its own connection
(the server closes every connection after one reply), and every
``STATS_EVERY + 1``-th request is a ``GET /stats``.  For the traced run
the same front door runs in this process, on this event loop.

Calibration needs a quiet machine, so at each slice boundary the
client lets its in-flight requests finish before it runs the
reference loop; the server is idle while it does.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time

from repro.harness import build_nfv_graph

from calib import reference_ms
from checks import CheckFailed, Oracle
from meter import Meter, Probe, timed_setup
from workloads import (
    BUDGET,
    MAX_IN_FLIGHT,
    STATS_EVERY,
    WORKERS,
    Round,
    Workload,
    build_service,
    make_streams,
)

#: concurrent client connections (the machine has two cores)
CONNECTIONS = 2
HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0


def query_body(tenant: str, graph, dataset: str) -> bytes:
    return json.dumps(
        {
            "dataset": dataset,
            "tenant": tenant,
            "query": {
                "name": graph.name,
                "labels": list(graph.labels),
                "edges": [
                    [u, v, graph.edge_label(u, v)] for u, v in graph.edges()
                ],
            },
        }
    ).encode()


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + body


async def exchange(port: int, request: bytes) -> tuple:
    """One request on a fresh connection -> (status, json payload)."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(request)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), json.loads(body)
    except (IndexError, ValueError):
        raise ConnectionError(
            f"malformed HTTP reply: {raw[:200]!r}"
        ) from None


def _rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def pinned_reference(cpu: int):
    """A reference reading taken on ``cpu`` — the server's, while it
    idles — so the yardstick reads the speed of the core that did the
    serving."""

    def ref() -> float:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            return reference_ms()
        finally:
            os.sched_setaffinity(0, mask)

    return ref


class ServerProcess:
    """``repro serve --listen`` on an ephemeral loopback port, pinned
    to ``cpu`` when one is given."""

    def __init__(self, wl: Workload, log_path: str, cpu=None) -> None:
        self.wl = wl
        self.log_path = log_path
        self.cpu = cpu
        self.proc = None
        self.port = None

    def start(self) -> None:
        src = os.path.join(os.getcwd(), "src")
        env = dict(os.environ, PYTHONPATH=src)
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--listen", f"{HOST}:0",
            "--dataset", self.wl.dataset, "--scale", "default",
            "--workers", str(WORKERS), "--budget", str(BUDGET),
            "--max-in-flight", str(MAX_IN_FLIGHT),
        ]
        # the server appends to its own handle; reading through a
        # separate one never moves the offset it writes at
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        if self.cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self.cpu})
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.port is None:
            for line in self._log_lines():
                # a line still being written has no newline yet
                if line.startswith("listening on ") and line.endswith("\n"):
                    self.port = int(line.rsplit(":", 1)[1])
            if self.port is None:
                self._poll(deadline)
        while True:
            try:
                status, _ = asyncio.run(
                    exchange(self.port, http_request("GET", "/healthz"))
                )
                if status == 200:
                    return
            except OSError:
                pass
            self._poll(deadline)

    def _log_lines(self) -> list:
        with open(self.log_path) as fh:
            return fh.readlines()

    def _poll(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            tail = "".join(self._log_lines())[-2000:]
            raise RuntimeError(f"server exited: {tail}")
        if time.monotonic() > deadline:
            raise RuntimeError("server did not start in time")
        time.sleep(0.002)

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        rss = 0.0
        if self.proc is None:
            return rss
        try:
            if self.proc.poll() is None:
                rss = _rss_mb(self.proc.pid)
                self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return rss


class HttpRounds:
    """Rounds of ``http-scrape``; ``in_process`` hosts the front door
    on the client's own event loop (the traced run)."""

    def __init__(self, wl, seed: int, workdir, in_process=False) -> None:
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.graph = build_nfv_graph(wl.dataset, "default")
        self.peak_rss_mb = 0.0

    def requests(self, k: int, cycle: int) -> list:
        """The round's requests, tenants interleaved: (query graph, or
        None for ``GET /stats``; wire bytes)."""
        _, streams = make_streams(
            self.wl, [self.graph], k, order=f"{self.seed}:{cycle}"
        )
        queue = [list(s) for _, s in sorted(streams.items())]
        out = []
        while any(queue):
            for stream in queue:
                if stream:
                    mq = stream.pop(0)
                    body = query_body(mq.tenant, mq.query.graph,
                                      self.wl.dataset)
                    out.append((mq.query.graph,
                                http_request("POST", "/query", body)))
                    if len(out) % (STATS_EVERY + 1) == STATS_EVERY:
                        out.append((None, http_request("GET", "/stats")))
        return out

    def run_round(self, k: int, cycle: int, spans=None) -> Round:
        gc.collect()
        requests = self.requests(k, cycle)
        if self.in_process:
            return self._in_process_round(k, requests, spans)
        # client and server each get a core of their own, and every
        # reference reading is taken on the server's
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        server_cpu, ref = None, None
        if len(cpus) >= 2:
            server_cpu, ref = cpus[1], pinned_reference(cpus[1])
            os.sched_setaffinity(0, {cpus[0]})
        server = ServerProcess(
            self.wl, self.workdir.fresh("server.log"), cpu=server_cpu
        )
        try:
            _, raw, setup, refs = timed_setup(server.start, ref=ref)
            meter = Meter(ref=ref)
            replies, _ = asyncio.run(
                self._drive(server.port, requests, meter)
            )
        finally:
            self.peak_rss_mb = max(self.peak_rss_mb, server.stop())
            os.sched_setaffinity(0, mask)
        rnd = self._collect(k, replies, meter)
        rnd.setup_s, rnd.setup_raw_s, rnd.refs_ms = setup, raw, refs
        rnd.refs_ms += meter.refs
        return rnd

    def _in_process_round(self, k: int, requests: list, spans) -> Round:
        from repro.obs.server import FrontDoor

        if spans is not None:
            spans.open_root()
        service, raw, setup, refs = timed_setup(
            lambda: build_service(self.wl)
        )
        meter = Meter()
        probe = Probe(service, meter)

        async def serve() -> list:
            door = FrontDoor(service, HOST, 0)
            await door.start()
            try:
                return await self._drive(door.address[1], requests, meter)
            finally:
                await door.close()

        replies, end_wall = asyncio.run(serve())
        rnd = self._collect(k, replies, meter)
        if spans is not None:
            rnd.spans = spans.close_root(end_wall)
        rnd.setup_s, rnd.setup_raw_s = setup, raw
        rnd.refs_ms = refs + meter.refs
        rnd.service, rnd.probe = service, probe
        return rnd

    async def _drive(self, port: int, requests: list, meter: Meter):
        """Closed loop over ``requests``.  Returns one reply row per
        request, (graph, status, payload, latency s), and the wall
        time the last reply arrived."""
        replies: list = []
        it = iter(requests)

        def slice_due() -> bool:
            return meter.now() - meter.cuts[-1] >= meter.slice_s

        async def worker() -> None:
            while not slice_due():
                item = next(it, None)
                if item is None:
                    return
                graph, wire = item
                t0 = meter.now()
                try:
                    status, payload = await exchange(port, wire)
                except OSError as exc:  # counted as a failed request
                    print(f"perfbench: request failed: {exc!r}",
                          file=sys.stderr)
                    status, payload = 0, {}
                replies.append((graph, status, payload, t0, meter.now()))

        meter.begin()
        end, end_wall = meter.now(), time.perf_counter()
        # every slice ends with nothing in flight: the calibration
        # between slices runs while the server idles
        while len(replies) < len(requests):
            await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
            end, end_wall = meter.now(), time.perf_counter()
            meter.maybe_calibrate()
        meter.close(end)
        rows = [
            (graph, status, payload, meter.norm(t1) - meter.norm(t0))
            for graph, status, payload, t0, t1 in replies
        ]
        return rows, end_wall

    def _collect(self, k: int, replies: list, meter: Meter) -> Round:
        lat, steps, failed = [], [], 0
        for graph, status, payload, seconds in replies:
            if graph is None:
                failed += status != 200
            elif status != 200 or payload["result"]["killed"]:
                failed += 1
            else:
                lat.append(seconds)
                steps.append(payload["latency_steps"] or 0)
        return Round(
            stream=k,
            setup_s=0.0,
            setup_raw_s=0.0,
            serve_s=meter.norm_seconds,
            serve_raw_s=meter.raw_seconds,
            completed=len(lat),
            latency_s=lat,
            latency_steps=steps,
            attempted=len(replies),
            failed=failed,
            pairs={
                p["ticket_id"]: (s, p["latency_steps"] or 0)
                for g, st, p, s in replies
                if g is not None and st == 200
            },
            report=replies,
        )

    def check_committed(self) -> None:
        """No committed digest covers an HTTP-served configuration."""

    def check(self, rnd: Round) -> None:
        oracle = Oracle([self.graph])
        for graph, status, payload, _ in rnd.report:
            if status != 200:
                continue  # already counted as failed
            if graph is None:
                if "stats" not in payload:
                    raise CheckFailed("GET /stats reply has no stats")
                continue
            r = payload["result"]
            if r["from_cache"] or r["coalesced"]:
                continue
            oracle.check("nfv", graph, r["found"], r["num_embeddings"])
