"""Serving benchmark for the Ψ reproduction: one workload, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload nfv-race --seed 1 --seconds 20 --trace 0

Runs the workload in rounds that measure about ``--seconds``,
checks the served answers, and prints one JSON object as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the traced variant and reports the per-layer
metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program sources under {SRC}; run from the "
            "root of a checkout"
        )
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_cycles(wl, seconds: float, run_round, check) -> list:
    """The run's rounds; the first cycle's are answer-checked."""
    from workloads import POOL, cycles_for

    rounds: list = []
    for cycle in range(cycles_for(wl, seconds)):
        for k in range(POOL):
            rnd = run_round(k, cycle)
            if cycle == 0:
                check(rnd)
            rnd.service = rnd.report = rnd.probe = None
            rnd.ops = []
            rounds.append(rnd)
    return rounds


def end_to_end(rounds: list, wl, rss_mb: float) -> dict:
    from meter import percentile

    latency = [s for r in rounds for s in r.latency_s]
    steps = [s for r in rounds for s in r.latency_steps]
    values = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "qps": (
            sum(r.completed for r in rounds)
            / sum(r.serve_s for r in rounds),
            "1/s",
        ),
        "latency_p50_ms": (percentile(latency, 50) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latency, 95) * 1e3, "ms"),
        "latency_p95_steps": (percentile(steps, 95), "steps"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def untraced(wl, seed: int, seconds: float, workdir) -> tuple:
    if wl.http:
        from httpload import HttpRounds

        runner = HttpRounds(wl, seed, workdir)
    else:
        from workloads import InProcess

        runner = InProcess(wl, seed, workdir)
    rounds = run_cycles(wl, seconds, runner.run_round, runner.check)
    rss = runner.peak_rss_mb if wl.http else peak_rss_mb()
    runner.check_committed()
    return rounds, end_to_end(rounds, wl, rss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from checks import CheckFailed
    from workloads import WORKLOADS, Workdir

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    workdir = Workdir()
    try:
        if args.trace:
            from traced import traced_run

            rounds, metrics = traced_run(wl, args.seed, args.seconds,
                                         workdir)
        else:
            rounds, metrics = untraced(wl, args.seed, args.seconds, workdir)
    except CheckFailed as exc:
        print(f"perfbench: answer check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        workdir.close()
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
