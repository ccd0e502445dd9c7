"""The two service workloads: a real ``repro.serve`` service under load.

The service (2 worker shards, batching up to 16) runs in this process's
server thread exactly as ``start_in_thread`` gives it to any embedding
program; the load comes from this process too, over TCP, closed loop.

* ``small``: two blocking connections send distinct tiny 1-D jobs one
  after another (``client.run``).  A block is a fixed number of jobs.
* ``burst``: one connection submits 16 distinct, batch-compatible 2-D
  jobs and streams each to its terminal event.  A block is one burst.

Both keep an in-process *twin* of their job (the same problem built and
run through the public solver API), which gives the bare solve time, the
reference state digest and the solver-layer breakdown of what a worker
does.
"""

from __future__ import annotations

import random
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.jit
from repro.errors import ServiceError
from repro.euler import problems, tiling
from repro.euler.constants import DEFAULT_CFL
from repro.euler.solver import SolverConfig, paper_benchmark_config
from repro.obs.trace import StepTrace
from repro.serve import JobSpec, ServiceClient, start_in_thread, state_digest

from bench import layers
from bench.runner import Block, Check, Workload
from bench.solver import MACH_RANGE
from bench.spans import Tracer
from bench.stats import percentile, ratio, tail_percentile

SERVICE = {"shards": 2, "batch_max": 16, "queue_depth": 64}

#: Distinct jobs differ by this much in CFL number (small) or Mach number
#: (burst): enough for a different result-cache key, not for different work.
CFL_JITTER = 1e-13
MACH_JITTER = 1e-9


@dataclass(frozen=True)
class Load:
    """Size of one block and of the untimed parts around it."""

    jobs: int  # per block
    cells: int
    max_steps: int
    warm_blocks: int
    setup_cycles: int
    twin_samples: int
    pings: int


class ServeWorkload(Workload):
    def __init__(self, name: str, why: str, kind: str, full: Load, smoke: Load):
        super().__init__(
            name,
            why,
            work_unit="done job",
            latency_unit=(
                "send to terminal reply of one job"
                if kind == "small"
                else "first submit to last terminal event of one burst"
            ),
            env={
                repro.jit.JIT_ENV: "1",
                repro.jit.THREADS_ENV: "1",
                tiling.TILE_BYTES_ENV: None,
            },
        )
        self.kind = kind
        self.sizes = {False: full, True: smoke}

    # -- inputs ---------------------------------------------------------

    def small_spec(self, number: int) -> JobSpec:
        return JobSpec(
            problem="sod",
            problem_args={"n_cells": self.load.cells},
            config=SolverConfig(
                reconstruction="pc",
                cfl=DEFAULT_CFL + (self.jitter_base + number) * CFL_JITTER,
            ),
            max_steps=self.load.max_steps,
            trace_every=1,
            return_state=True,
        )

    def burst_machs(self, number: int) -> List[float]:
        return [mach + number * MACH_JITTER for mach in self.machs]

    def burst_specs(self, number: int) -> List[JobSpec]:
        return [
            JobSpec(
                problem="two_channel",
                problem_args={"n_cells": self.load.cells, "mach": mach},
                config=paper_benchmark_config(),
                max_steps=self.load.max_steps,
                trace_every=1,
                return_state=True,
            )
            for mach in self.burst_machs(number)
        ]

    # -- the in-process twin of a job ----------------------------------

    def twin(self, number: int = 0):
        """The solver a worker builds for job (or burst) ``number``."""
        if self.kind == "small":
            spec = self.small_spec(number)
            return problems.riemann_problem_solver(
                problems.SOD, n_cells=self.load.cells, config=spec.config
            )[0]
        cells = self.load.cells
        return problems.two_channel_ensemble(
            self.burst_machs(number),
            n_cells=cells,
            h=cells / 2.0,
            config=paper_benchmark_config(),
        )[0]

    def solve_twin(self, number: int, tracer=None) -> Tuple[float, List[str]]:
        """Build, run and digest the twin as a worker would; returns the
        seconds it took and the state digest(s)."""
        began = perf_counter()
        solver = self.twin(number)
        if tracer is not None:
            layers.trace_solver(tracer, solver)
            before = solver.engine.counters()
        try:
            if self.kind == "small":
                with tracer.span("block") if tracer is not None else nullcontext():
                    solver.run(max_steps=self.load.max_steps, watch=StepTrace())
                digests = [state_digest(solver.u)]
                solver.primitive.tolist()
            else:
                with tracer.span("block") if tracer is not None else nullcontext():
                    solver.run(max_steps=self.load.max_steps)
                members = range(solver.batch)
                digests = [state_digest(solver.member_u(m)) for m in members]
                for member in members:
                    solver.member_primitive(member).tolist()
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = perf_counter() - began
        if tracer is not None:
            self.twin_counters.append((before, solver.engine.counters()))
            self.twin_engine = solver.engine
        return elapsed, digests

    def first_step(self) -> None:
        self.twin().step()

    # -- set-up ---------------------------------------------------------

    def open_inputs(self, rng: random.Random, smoke: bool) -> None:
        self.load = self.sizes[smoke]
        self.jitter_base = rng.randrange(10**6) * 10**4
        self.machs = [rng.uniform(*MACH_RANGE) for _ in range(self.load.jobs)]

    def open(self, scratch: Path, trace: bool) -> None:
        self.tracer = Tracer()
        self.twin_counters: List[Tuple[dict, dict]] = []
        self.rows: Dict[str, List[tuple]] = {"plain": [], "traced": []}
        self.events = 0
        self.sample = None
        self.last_burst = None
        self.next_number = 0
        self.setups: List[float] = []
        self.clients: List[ServiceClient] = []
        self.handle = None
        self.first_step()  # compiles into the private cache, off the clock
        for cycle in range(self.load.setup_cycles):
            if cycle:
                self.close()
            began = perf_counter()
            self.handle = start_in_thread(**SERVICE)
            connections = 2 if self.kind == "small" else 1
            self.clients = [
                ServiceClient(port=self.handle.port) for _ in range(connections)
            ]
            self.clients[0].ping()
            self.block("setup", 0)  # one job cycle: the shards load the kernel
            self.setups.append(perf_counter() - began)
        for _ in range(self.load.warm_blocks):
            self.block("warm", 0)
        self.stats_before = self.clients[0].stats()

    def setup_samples(self, blocks: List[Block]) -> List[float]:
        return self.setups

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.handle is not None:
            self.handle.stop()
            self.handle = None

    # -- blocks ---------------------------------------------------------

    def block(self, variant: str, index: int) -> Block:
        number = self.next_number
        self.next_number += self.load.jobs
        if self.kind == "small":
            return self.small_block(variant, number)
        return self.burst_block(variant, number)

    def small_block(self, variant: str, number: int) -> Block:
        # The set-up cycle sends one job per connection, a block its share.
        share = 1 if variant == "setup" else self.load.jobs // len(self.clients)
        records: List[List[tuple]] = [[] for _ in self.clients]
        errors: List[str] = []

        def client_main(lane: int) -> None:
            client = self.clients[lane]
            for job in range(share):
                mine = number + lane * share + job
                spec = self.small_spec(mine)
                began = perf_counter()
                try:
                    reply = client.run(spec)
                except (ServiceError, OSError) as error:
                    errors.append(repr(error))
                    continue
                records[lane].append((began, perf_counter(), reply, mine))

        lanes = [
            threading.Thread(target=client_main, args=(lane,), name=f"bench-client-{lane}")
            for lane in range(len(self.clients))
        ]
        start = perf_counter()
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join()
        wall = perf_counter() - start
        done = []
        for began, ended, reply, mine in (row for lane in records for row in lane):
            status = reply["status"]
            if status["state"] != "done" or status["cached"]:
                errors.append(f"{status['job_id']}: {status['state']} cached={status['cached']}")
                continue
            done.append((began, ended, status))
            if self.sample is None:
                self.sample = (mine, reply["result"]["state_sha256"])
        for message in errors[:3]:
            self.notes.append(f"job failed: {message}")
        if variant in self.rows:
            self.rows[variant].extend(done)
        if variant == "traced":
            for began, ended, status in done:
                self.job_spans(began, ended, status, -1)
        attempted = share * len(self.clients)
        return Block(
            wall_s=wall,
            work=len(done),
            latencies=[ended - began for began, ended, _ in done],
            attempted=attempted,
            failed=attempted - len(done),
        )

    def burst_block(self, variant: str, number: int) -> Block:
        client = self.clients[0]
        specs = self.burst_specs(number)
        traced = variant == "traced"
        done, results = [], []
        start = perf_counter()
        try:
            submitted = []
            for spec in specs:
                began = perf_counter()
                submitted.append((began, client.submit(spec)["job_id"]))
            for began, job_id in submitted:
                events = list(client.stream(job_id))
                ended = perf_counter()
                last = events[-1] if events else {}
                if last.get("event") != "done" or last.get("cached"):
                    self.notes.append(f"job failed: {job_id} ended with {last.get('event')}")
                    continue
                if variant in self.rows:
                    self.events += len(events)
                results.append(last["result"])
                done.append((began, ended, client.status(job_id) if traced else None))
        except (ServiceError, OSError) as error:
            self.notes.append(f"burst failed: {error!r}")
        wall = perf_counter() - start
        if variant in self.rows:
            self.rows[variant].extend(done)
        if variant == "plain" and len(done) == len(specs):
            self.last_burst = (number, specs, results)
        if traced and done:
            self.tracer.run = number
            root = self.tracer.add("serve.client.burst", start, start + wall)
            for began, ended, status in done:
                self.job_spans(began, ended, status, root)
        whole = len(done) == len(specs)
        return Block(
            wall_s=wall,
            work=len(done),
            latencies=[wall] if whole else [],
            attempted=len(specs),
            failed=len(specs) - len(done),
        )

    def job_spans(self, began: float, ended: float, status: dict, parent: int) -> None:
        """One job's span and, under it, the three parts its latency splits
        into.  The parts' lengths are measured (the server's timestamps);
        their positions inside the job span are nominal."""
        wait, run, _ = _parts(began, ended, status)
        job = self.tracer.add("serve.client.job", began, ended, parent)
        self.tracer.add("serve.queue.wait", began, began + wait, job)
        self.tracer.add("serve.server.run", began + wait, began + wait + run, job)
        self.tracer.add("serve.wire.reply_tail", began + wait + run, ended, job)

    # -- checks ---------------------------------------------------------

    def checks(self, trace: bool) -> List[Check]:
        found = []
        if self.kind == "small":
            number, digest = self.sample or (0, None)
            _, digests = self.solve_twin(number)
            found.append(
                ("a sampled job's state_sha256 equals the in-process solve's",
                 digest == digests[0], f"job {number}")
            )
        else:
            found += self.burst_checks()
        if trace:
            rows = self.rows["traced"]
            ok = sum(_parts(*row)[2] >= 0.0 for row in rows)
            found.append(
                ("queue wait + run + reply tail make up the client latency, tail >= 0 on 99 % of jobs",
                 bool(rows) and ok >= 0.99 * len(rows), f"{ok} of {len(rows)}")
            )
        return found

    def burst_checks(self) -> List[Check]:
        if self.last_burst is None:
            return [("a whole burst completed", False, "")]
        number, specs, results = self.last_burst
        _, digests = self.solve_twin(number)
        found = [
            (f"job {member}'s state_sha256 equals the in-process ensemble member's",
             results[member]["state_sha256"] == digests[member], "")
            for member in (0, len(specs) - 1)
        ]
        client = self.clients[0]
        cached = identical = 0
        self.hit_seconds: List[float] = []
        for spec, result in zip(specs, results):
            began = perf_counter()
            reply = client.submit(spec)
            events = list(client.stream(reply["job_id"]))
            self.hit_seconds.append(perf_counter() - began)
            cached += bool(reply["cached"])
            identical += bool(events) and events[-1].get("result") == result
        found.append(("the resubmitted burst is answered from the result cache",
                      cached == len(specs), f"{cached} of {len(specs)} cached"))
        found.append(("cached payloads are identical to the computed ones",
                      identical == len(specs), f"{identical} of {len(specs)}"))
        formed = self.stats_delta(("batching", "batches_formed"))
        found.append(("the service formed batches", formed > 0, f"batches_formed = {formed}"))
        return found

    # -- layers ---------------------------------------------------------

    def spans(self) -> List[list]:
        return self.tracer.spans

    def stats_delta(self, path: Tuple[str, ...], now: Optional[dict] = None) -> float:
        """Growth of one ``client.stats()`` counter since the run began."""

        def dig(stats):
            for key in path:
                stats = (stats or {}).get(key)
            return stats or 0

        return dig(now or self.clients[0].stats()) - dig(self.stats_before)

    def layers(self, samples: Dict[str, List[Block]]) -> Dict[str, float]:
        load = self.load
        seconds = [self.solve_twin(0)[0] for _ in range(load.twin_samples)]
        for _ in range(min(3, load.twin_samples)):
            self.tracer.run = -1
            self.solve_twin(0, self.tracer)
        metrics = layers.solver_layers(self.tracer.spans, self.twin_counters, self.twin_engine)

        client = self.clients[0]
        pings = []
        for _ in range(load.pings):
            began = perf_counter()
            client.ping()
            pings.append(perf_counter() - began)

        unit_p50 = percentile(
            [s for group in samples.values() for b in group for s in b.latencies], 0.5
        )
        jobs = [ended - began for rows in self.rows.values() for began, ended, _ in rows]
        job_p50 = percentile(jobs, 0.5)
        for name, fraction in (("p95", 0.95), ("p99", 0.99)):
            tail = tail_percentile(jobs, fraction)
            if tail is None:
                self.notes.append(f"serve.client.{name}_over_p50: fewer than 10 samples beyond, reported as 0")
            metrics[f"serve.client.{name}_over_p50"] = ratio(tail or 0.0, job_p50)

        parts = [_parts(*row) for row in self.rows["traced"]]
        total = sum(ended - began for began, ended, _ in self.rows["traced"])
        hit = percentile(self.hit_seconds, 0.5) if self.kind == "burst" else 0.0
        now = client.stats()

        def grown(*path: str) -> float:
            return self.stats_delta(path, now)

        dequeued = grown("queue", "dequeued")
        metrics.update(
            {
                "serve.queue.wait_share": ratio(sum(p[0] for p in parts), total),
                "serve.server.run_share": ratio(sum(p[1] for p in parts), total),
                "serve.wire.reply_tail_share": ratio(sum(p[2] for p in parts), total),
                "serve.wire.reply_tail_nonneg_share": ratio(
                    sum(p[2] >= 0.0 for p in parts), len(parts)
                ),
                "serve.wire.ping_share": ratio(percentile(pings, 0.5), job_p50),
                "serve.workers.solve_share": ratio(percentile(seconds, 0.5), unit_p50),
                "serve.overhead_share": 1.0 - ratio(percentile(seconds, 0.5), unit_p50),
                "serve.cache.hit_share": ratio(hit, job_p50),
                "serve.server.batches_formed": grown("batching", "batches_formed"),
                "serve.server.batched_jobs_share": ratio(
                    grown("batching", "batched_jobs"), dequeued
                ),
                "serve.queue.high_watermark": now["queue"]["high_watermark"],
                "serve.stream.events_per_job": ratio(self.events, len(jobs)) if self.kind == "burst" else 0.0,
                "serve.cache.hits": grown("result_cache", "hits"),
                "serve.cache.misses": grown("result_cache", "misses"),
                "serve.star_cache.hits": grown("star_cache", "hits"),
                "serve.server.retries": grown("retries"),
                "serve.workers.respawns": grown("shards", "respawns"),
            }
        )
        self.notes.append(
            f"serve shares: job p50 {job_p50 * 1e3!r} ms, unit p50 {unit_p50 * 1e3!r} ms,"
            f" in-process solve p50 {percentile(seconds, 0.5) * 1e3!r} ms,"
            f" ping p50 {percentile(pings, 0.5) * 1e6!r} us"
        )
        return metrics


def _parts(began: float, ended: float, status: dict) -> Tuple[float, float, float]:
    """(queue wait, server run, reply tail) of one job: the first two from
    the server's timestamps, the tail is what is left of the client's
    latency (request and reply on the wire, event hand-over, polling)."""
    wait = status["started"] - status["created"]
    run = status["finished"] - status["started"]
    return wait, run, (ended - began) - wait - run


def workloads() -> List[ServeWorkload]:
    return [
        ServeWorkload(
            "serve_small_c2",
            "2 closed-loop connections, distinct tiny 1-D jobs (sod, 96 cells, 5 steps): wire, queue, dispatch and reply dominate the solve; target of per-job overhead work",
            "small",
            Load(jobs=200, cells=96, max_steps=5, warm_blocks=1, setup_cycles=5, twin_samples=30, pings=200),
            Load(jobs=20, cells=32, max_steps=3, warm_blocks=0, setup_cycles=1, twin_samples=5, pings=20),
        ),
        ServeWorkload(
            "serve_burst16_tc24",
            "bursts of 16 batch-compatible 2-D jobs (24x24, 40 steps) streamed to the end, then one burst resubmitted: queue drain, batching and BatchEngine dominate; per-job overhead is amortised",
            "burst",
            Load(jobs=16, cells=24, max_steps=40, warm_blocks=2, setup_cycles=5, twin_samples=5, pings=200),
            Load(jobs=4, cells=12, max_steps=5, warm_blocks=0, setup_cycles=1, twin_samples=2, pings=20),
        ),
    ]
