"""The four solver workloads: two-channel grids and a batched ensemble.

A block builds the problem from its initial state, takes one untimed
warm step (kernel load, workspace allocation) and then times ``steps``
calls of the public ``step()``.  The seed draws the shock Mach numbers;
within a run every block uses the same ones, so every block must end in
the same bits.
"""

from __future__ import annotations

import os
import random
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.jit
from repro.analysis import deps
from repro.errors import PhysicsError
from repro.euler import problems, tiling
from repro.euler.solver import SolverConfig, paper_benchmark_config
from repro.jit import codegen
from repro.jit.kernels import build_flux_ir
from repro.serve import state_digest

from bench import env as bench_env
from bench import layers
from bench.runner import Block, Check, Workload, rate_and_latency
from bench.spans import Tracer
from bench.stats import ratio

MACH_RANGE = (2.0, 2.4)


@dataclass(frozen=True)
class Shape:
    """Problem size of one block: grid side, timed steps, ensemble members."""

    grid: int
    steps: int
    batch: int = 1


class SolverWorkload(Workload):
    """Two-channel problem stepped through ``EulerSolver2D``/``EulerEnsemble2D``."""

    def __init__(
        self,
        name: str,
        why: str,
        config: SolverConfig,
        backend: str,
        threads: int,
        full: Shape,
        smoke: Shape,
        reference: str,
    ):
        super().__init__(
            name,
            why,
            work_unit="member-step" if full.batch > 1 else "solver step",
            latency_unit="one step() call",
            env={
                repro.jit.JIT_ENV: "1" if backend == "jit" else None,
                repro.jit.THREADS_ENV: str(threads),
                tiling.TILE_BYTES_ENV: None,
            },
        )
        self.config = config
        self.backend = backend
        self.threads = threads
        self.sizes = {False: full, True: smoke}
        #: What the final state is compared with: the NumPy backend, the
        #: single-threaded JIT, or the solo solvers of two members.
        self.reference = reference

    # -- building -------------------------------------------------------

    def open_inputs(self, rng: random.Random, smoke: bool) -> None:
        self.shape = self.sizes[smoke]
        self.machs = [rng.uniform(*MACH_RANGE) for _ in range(self.shape.batch)]

    def open(self, scratch: Path, trace: bool) -> None:
        self.tracer = Tracer()
        self.digests: List[str] = []
        self.traced_counters: List[Tuple[dict, dict]] = []
        self.last: Dict[str, object] = {}
        self.first_step()  # compiles into the private cache, off the clock

    def build(self, backend: Optional[str] = None, threads: Optional[int] = None,
              machs: Optional[List[float]] = None):
        """A fresh solver (or ensemble) at the initial state.

        The backend resolves and the thread count binds when the engine
        is constructed, so both are set around the construction only.
        """
        grid = self.shape.grid
        machs = machs or self.machs
        os.environ[repro.jit.THREADS_ENV] = str(threads or self.threads)
        try:
            with repro.jit.backend_override(backend or self.backend):
                if len(machs) > 1:
                    return problems.two_channel_ensemble(
                        machs, n_cells=grid, h=grid / 2.0, config=self.config
                    )[0]
                return problems.two_channel(
                    n_cells=grid, h=grid / 2.0, mach=machs[0], config=self.config
                )[0]
        finally:
            os.environ[repro.jit.THREADS_ENV] = str(self.threads)

    def first_step(self) -> None:
        self.build().step()

    def stepped(self, solver, steps: int):
        for _ in range(steps):
            solver.step()
        return solver

    # -- measuring ------------------------------------------------------

    def variants(self, trace: bool) -> Tuple[str, ...]:
        if trace and self.reference == "serial":
            return ("serial", "plain", "traced")  # the serial baseline beside it
        return super().variants(trace)

    def block(self, variant: str, index: int) -> Block:
        steps, batch = self.shape.steps, self.shape.batch
        begin = perf_counter()
        solver = self.build(threads=1 if variant == "serial" else None)
        solver.step()
        setup = perf_counter() - begin
        traced = variant == "traced"
        if traced:
            self.tracer.run = index
            layers.trace_solver(self.tracer, solver)
        before = solver.engine.counters()
        latencies: List[float] = []
        try:
            with self.tracer.span("block") if traced else nullcontext():
                start = perf_counter()
                try:
                    for _ in range(steps):
                        began = perf_counter()
                        solver.step()
                        latencies.append(perf_counter() - began)
                except PhysicsError as error:
                    self.notes.append(f"block {index} ({variant}) failed: {error}")
                wall = perf_counter() - start
        finally:
            self.tracer.uninstall()
        after = solver.engine.counters()
        if traced:
            self.traced_counters.append((before, after))
        self.digests.append(state_digest(solver.u))
        self.last[variant] = solver
        return Block(
            wall_s=wall,
            work=len(latencies) * batch,
            latencies=latencies,
            attempted=steps * batch,
            failed=(steps - len(latencies)) * batch,
            setup_s=setup,
        )

    # -- checking -------------------------------------------------------

    def sweep_plan(self, engine) -> tiling.TilePlan:
        """The strip plan the engine makes for one compiled sweep."""
        shape = self.shape
        return tiling.plan_tiles(
            shape.grid,
            tiling.jit_sweep_row_bytes(shape.grid * shape.batch, 4, engine.ghost_cells),
            engine.tile_bytes,
        )

    def checks(self, trace: bool) -> List[Check]:
        solver = self.last["plain"]
        steps = self.shape.steps + 1  # the warm step and the timed ones
        found = [
            (
                "all blocks end in the same state sha256",
                len(set(self.digests)) == 1,
                f"{len(set(self.digests))} distinct over {len(self.digests)} blocks",
            )
        ]
        stats = solver.engine.counters().get("jit", {})
        if self.backend == "jit":
            found.append(
                ("no strip fell back to NumPy", not stats["fallbacks"], str(stats["fallbacks"]))
            )
        if self.reference == "numpy":
            oracle = self.stepped(self.build(backend="numpy"), steps)
            gap = float(np.max(np.abs(oracle.u - solver.u)))
            found.append(("final state equals the NumPy backend's at 0.0", gap == 0.0, f"max |diff| = {gap}"))
        elif self.reference == "serial":
            serial = self.stepped(self.build(threads=1), steps)
            found.append(
                (
                    "final state sha256 equals the single-threaded run's",
                    state_digest(serial.u) == state_digest(solver.u),
                    "",
                )
            )
            if len(self.sweep_plan(solver.engine).tiles) >= 2:
                found.append(
                    ("strips ran on the thread pool", stats["strips_threaded"] > 0,
                     f"strips_threaded = {stats['strips_threaded']}")
                )
            found.append(("no strip plan was serialized", not stats["serialized"], str(stats["serialized"])))
        elif self.reference == "members":
            for member in (0, len(self.machs) - 1):
                solo = self.stepped(self.build(machs=[self.machs[member]]), steps)
                gap = float(np.max(np.abs(solo.u - solver.member_u(member))))
                found.append(
                    (f"member {member} equals its solo solver at 0.0", gap == 0.0, f"max |diff| = {gap}")
                )
        return found

    # -- layers ---------------------------------------------------------

    def spans(self) -> List[list]:
        return self.tracer.spans

    def step_allocation(self) -> int:
        """tracemalloc peak over baseline of one step, after two warm steps."""
        solver = self.stepped(self.build(), 2)
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            solver.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - baseline

    def proof_seconds(self, engine) -> float:
        """One timed strip-independence proof of the run's sweep plan."""
        spec = engine.backend.spec
        amap = codegen.sweep_access_map(spec, build_flux_ir(spec))
        strips = tuple((tile.start, tile.stop) for tile in self.sweep_plan(engine).tiles)
        began = perf_counter()
        proof = deps.prove_strips(amap, strips, spec.ghost_cells, where=spec.label())
        elapsed = perf_counter() - began
        if not proof.licensed:
            self.notes.append(f"strip proof not licensed: {proof.reason}")
        return elapsed

    def layers(self, samples: Dict[str, List[Block]]) -> Dict[str, float]:
        engine = self.last["traced"].engine
        metrics = layers.solver_layers(self.tracer.spans, self.traced_counters, engine)
        metrics["euler.engine.alloc_bytes_per_step"] = self.step_allocation()
        if self.reference == "serial":
            def rate(variant):
                return rate_and_latency(samples[variant])[0]["median"]

            base = rate("serial")
            metrics["par.speedup_t2"] = ratio(rate("plain"), base)
            metrics["par.efficiency_t2"] = ratio(rate("plain"), self.threads * base)
            metrics["analysis.deps.proof_cost_steps"] = self.proof_seconds(engine) * base
            self.notes.append(f"par.* base: {base!r} solver steps/s single-threaded, same run")
            if bench_env.usable_cpus() < self.threads:
                self.notes.append(
                    f"{bench_env.usable_cpus()} usable CPU(s) for {self.threads} threads:"
                    " par.* is untested on this host, the threads time-slice"
                )
        return metrics


def workloads() -> List[SolverWorkload]:
    paper = paper_benchmark_config()
    return [
        SolverWorkload(
            "grid400_jit",
            "the paper's Fig. 4 point (400x400, pc/hllc/RK3): compiled kernels do most of a step; serial baseline of grid400_jit_t2",
            paper, "jit", 1, Shape(400, 10), Shape(32, 3), "numpy",
        ),
        SolverWorkload(
            "grid400_jit_t2",
            "same problem through the proof-licensed 2-thread strip pool: the paper's scaling claim, and where a serial-path gain that costs the threaded path shows",
            paper, "jit", 2, Shape(400, 10), Shape(32, 3), "serial",
        ),
        SolverWorkload(
            "grid160_weno3",
            "the flow-picture method (weno3/characteristic): the JIT declines every sweep, so the NumPy kernels do the work; bypass workload for C-kernel changes",
            SolverConfig(), "auto", 1, Shape(160, 5), Shape(24, 2), "numpy",
        ),
        SolverWorkload(
            "ens16_g24_jit",
            "16-member 24x24 ensemble on BatchEngine: Python dispatch, boundary fill and RK combine outweigh C time, so dispatch-level changes move it most",
            paper, "jit", 1, Shape(24, 100, batch=16), Shape(12, 10, batch=4), "members",
        ),
    ]
