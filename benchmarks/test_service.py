"""Service load test: latency/throughput under concurrency + cache win.

A real service (spawned shards, TCP server) is driven by concurrent
blocking clients, exactly like external users:

* **Load levels** — ``REPRO_SVC_CONCURRENCY`` client counts (default
  1, 4, 8) each submit a batch of *distinct* jobs (tiny CFL jitter
  makes every cache key unique without changing the work) and the
  per-request latencies give p50/p99 and throughput per level.
* **Cache section** — one cold run vs repeated identical resubmits.
  Acceptance (ISSUE 6): the cached reply is >= 10x faster than the
  cold run AND bitwise identical to it (same ``state_sha256``, same
  JSON payload).

The series lands in ``BENCH_service.json`` at the repo root so the
service's perf trajectory is tracked across PRs.  CI shrink knobs:
``REPRO_SVC_CONCURRENCY``, ``REPRO_SVC_REQUESTS`` (per level),
``REPRO_SVC_SHARDS``, ``REPRO_SVC_GRID``, ``REPRO_SVC_STEPS``.
"""

from __future__ import annotations

import math
import os
import threading
import time

from repro.euler.solver import SolverConfig
from repro.serve import JobSpec, ServiceClient
from repro.serve.server import start_in_thread

from conftest import write_bench_json

CONCURRENCY_LEVELS = [
    int(level)
    for level in os.environ.get("REPRO_SVC_CONCURRENCY", "1,4,8").split(",")
]
REQUESTS_PER_LEVEL = int(os.environ.get("REPRO_SVC_REQUESTS", "24"))
SHARDS = int(os.environ.get("REPRO_SVC_SHARDS", "2"))
GRID = int(os.environ.get("REPRO_SVC_GRID", "96"))
STEPS = int(os.environ.get("REPRO_SVC_STEPS", "20"))
WARM_RUNS = 10
CACHE_SPEEDUP_FLOOR = 10.0


def _spec(cfl_jitter: int = 0, return_state: bool = False) -> JobSpec:
    """A benchmark job; ``cfl_jitter`` perturbs the cache key only.

    The jitter is far below any dt the CFL condition produces a visible
    change from (1 part in 1e9), so every jittered job does identical
    work while missing the result cache — what a load test needs.
    """
    return JobSpec(
        problem="sod",
        problem_args={"n_cells": GRID},
        config=SolverConfig(cfl=0.5 + cfl_jitter * 1e-12),
        max_steps=STEPS,
        return_state=return_state,
        trace_every=max(1, STEPS // 4),
    )


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[max(0, index)]


def _drive_level(port, concurrency, requests, jitter_base):
    """``concurrency`` client threads submit ``requests`` jobs total."""
    latencies = []
    errors = []
    lock = threading.Lock()
    shares = [
        range(jitter_base + offset, jitter_base + requests, concurrency)
        for offset in range(concurrency)
    ]

    def client_main(share):
        try:
            with ServiceClient(port=port) as client:
                for jitter in share:
                    t0 = time.perf_counter()
                    response = client.run(_spec(cfl_jitter=jitter), block=True)
                    elapsed = time.perf_counter() - t0
                    with lock:
                        if response["status"]["state"] != "done":
                            errors.append(response["status"])
                        latencies.append(elapsed)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(repr(error))

    threads = [
        threading.Thread(target=client_main, args=(share,), daemon=True)
        for share in shares
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert not errors, f"level c={concurrency} had failures: {errors[:3]}"
    assert len(latencies) == requests
    ordered = sorted(latencies)
    return {
        "concurrency": concurrency,
        "requests": requests,
        "wall_seconds": wall,
        "throughput_jobs_per_s": requests / wall,
        "p50_ms": _percentile(ordered, 0.50) * 1e3,
        "p99_ms": _percentile(ordered, 0.99) * 1e3,
        "mean_ms": sum(latencies) / len(latencies) * 1e3,
    }


def test_service_load_and_cache():
    handle = start_in_thread(
        shards=SHARDS, queue_depth=max(64, 2 * REQUESTS_PER_LEVEL)
    )
    try:
        levels = []
        jitter_base = 0
        for concurrency in CONCURRENCY_LEVELS:
            levels.append(
                _drive_level(handle.port, concurrency, REQUESTS_PER_LEVEL, jitter_base)
            )
            jitter_base += REQUESTS_PER_LEVEL

        # -- the cache acceptance: >= 10x faster, bit for bit identical
        with ServiceClient(port=handle.port) as client:
            cache_spec = _spec(cfl_jitter=-1, return_state=True)
            t0 = time.perf_counter()
            cold = client.run(cache_spec)
            cold_s = time.perf_counter() - t0
            assert cold["status"]["cached"] is False
            warm_times = []
            for _ in range(WARM_RUNS):
                t0 = time.perf_counter()
                warm = client.run(cache_spec)
                warm_times.append(time.perf_counter() - t0)
                assert warm["status"]["cached"] is True
                assert warm["result"] == cold["result"]  # bitwise: same payload
                assert warm["result"]["state_sha256"] == cold["result"]["state_sha256"]
            warm_p50 = _percentile(sorted(warm_times), 0.5)
            speedup = cold_s / warm_p50
            assert speedup >= CACHE_SPEEDUP_FLOOR, (
                f"cached reply only {speedup:.1f}x faster than cold"
                f" ({cold_s * 1e3:.1f} ms vs {warm_p50 * 1e3:.2f} ms)"
            )
            stats = client.stats()

        payload = {
            "workload": {
                "problem": "sod",
                "n_cells": GRID,
                "max_steps": STEPS,
                "shards": SHARDS,
                "requests_per_level": REQUESTS_PER_LEVEL,
            },
            "levels": levels,
            "cache": {
                "cold_ms": cold_s * 1e3,
                "warm_p50_ms": warm_p50 * 1e3,
                "warm_runs": WARM_RUNS,
                "speedup": speedup,
                "bitwise_identical": True,
                "state_sha256": cold["result"]["state_sha256"],
            },
            "service": {
                "queue_high_watermark": stats["queue"]["high_watermark"],
                "result_cache": {
                    key: stats["result_cache"][key]
                    for key in ("hits", "misses", "evictions", "entries")
                },
            },
        }
        path = write_bench_json("service", payload)
        for level in levels:
            print(
                f"c={level['concurrency']:<3d}"
                f" p50={level['p50_ms']:8.2f} ms"
                f" p99={level['p99_ms']:8.2f} ms"
                f" throughput={level['throughput_jobs_per_s']:6.2f} jobs/s"
            )
        print(
            f"cache: cold={cold_s * 1e3:.2f} ms"
            f" warm_p50={warm_p50 * 1e3:.3f} ms speedup={speedup:.0f}x -> {path}"
        )
    finally:
        handle.stop()
