"""One run of one workload: blocks until the time is up, then the metrics.

A workload is cut into *blocks* of fixed work (a solver built from its
initial state and stepped N times, N jobs, one burst).  A run repeats
blocks until ``--seconds`` have passed, so every block does identical
arithmetic and the run length only decides how many samples the medians
are taken over.  A traced run alternates plain and traced blocks, which
gives the per-layer numbers and the cost of tracing from the same run.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from bench.stats import ratio, summary

#: Peak memory is read once this many rounds of blocks are done: by then
#: every buffer exists, and the reading does not depend on how many more
#: blocks a faster or slower program fits into the run.
RSS_AFTER_ROUNDS = 2

Check = Tuple[str, bool, str]


@dataclass
class Block:
    """What one block measured."""

    wall_s: float
    work: int
    latencies: List[float]
    attempted: int
    failed: int = 0
    setup_s: Optional[float] = None


class Workload:
    """Base of the six workloads; subclasses fill in the hooks."""

    #: Rounds a run makes however short ``--seconds`` is.
    min_rounds = 4

    def __init__(
        self,
        name: str,
        why: str,
        work_unit: str,
        latency_unit: str,
        env: Dict[str, Optional[str]],
    ):
        self.name = name
        self.why = why
        #: What ``work_per_s`` counts and what ``latency_p50_ms`` times.
        self.work_unit = work_unit
        self.latency_unit = latency_unit
        #: ``REPRO_*`` settings this workload is measured under.
        self.env = env
        #: Remarks printed with the result (skipped parts, thin samples).
        self.notes: List[str] = []

    def open_inputs(self, rng: random.Random, smoke: bool) -> None:
        """Draw the run's inputs from ``rng`` (same seed, same inputs)."""
        raise NotImplementedError

    def open(self, scratch: Path, trace: bool) -> None:
        """The untimed part before the first block."""
        raise NotImplementedError

    def variants(self, trace: bool) -> Tuple[str, ...]:
        return ("plain", "traced") if trace else ("plain",)

    def block(self, variant: str, index: int) -> Block:
        raise NotImplementedError

    def setup_samples(self, blocks: List[Block]) -> List[float]:
        return [block.setup_s for block in blocks if block.setup_s is not None]

    def checks(self, trace: bool) -> List[Check]:
        raise NotImplementedError

    def layers(self, samples: Dict[str, List[Block]]) -> Dict[str, float]:
        """Per-layer metrics of the traced blocks (traced runs only)."""
        raise NotImplementedError

    def first_step(self) -> None:
        """Build this workload's solver and take one step (timed by the
        cold/warm compile subprocesses)."""
        raise NotImplementedError

    def spans(self) -> List[list]:
        return []

    def close(self) -> None:
        pass


def peak_rss_mb() -> float:
    """High-water resident memory of this process plus its live children."""

    def high_water_kb(pid) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    pids = ["self"] + [child.pid for child in multiprocessing.active_children()]
    return sum(high_water_kb(pid) for pid in pids) / 1024.0


def measure(workload: Workload, seconds: float, trace: bool):
    """Rounds of one block per variant until ``seconds`` have passed."""
    variants = workload.variants(trace)
    samples: Dict[str, List[Block]] = {variant: [] for variant in variants}
    rss = None
    rounds = 0
    started = perf_counter()
    while rounds < workload.min_rounds or perf_counter() - started < seconds:
        for variant in variants:
            samples[variant].append(workload.block(variant, rounds))
        rounds += 1
        if rounds == RSS_AFTER_ROUNDS:
            rss = peak_rss_mb()
    return samples, rss if rss is not None else peak_rss_mb()


def rate_and_latency(blocks: List[Block]) -> Tuple[Dict[str, float], Dict[str, float]]:
    rates = summary([block.work / block.wall_s for block in blocks if block.work])
    latency = summary(
        [1e3 * seconds for block in blocks for seconds in block.latencies]
    )
    return rates, latency


def end_to_end(workload: Workload, blocks: List[Block], rss: float):
    """The four end-to-end metrics and the summaries printed beside them."""
    rates, latency = rate_and_latency(blocks)
    setup = summary(workload.setup_samples(blocks))
    metrics = {
        "work_per_s": rates["median"],
        "latency_p50_ms": latency["median"],
        "setup_s": setup["median"],
        "peak_rss_mb": rss,
    }
    detail = {"work_per_s": rates, "latency_p50_ms": latency, "setup_s": setup}
    return metrics, detail


def trace_metrics(samples: Dict[str, List[Block]], span_count: int):
    """How the traced blocks compare with the plain ones of the same run."""
    plain, _ = rate_and_latency(samples["plain"])
    traced, latency = rate_and_latency(samples["traced"])
    units = sum(len(block.latencies) for block in samples["traced"])
    return {
        "trace.work_per_s": traced["median"],
        "trace.latency_p50_ms": latency["median"],
        "trace.overhead": 1.0 - ratio(traced["median"], plain["median"]),
        "trace.spans_per_unit": ratio(span_count, units),
    }


def totals(samples: Dict[str, List[Block]]) -> Tuple[int, int]:
    blocks = [block for group in samples.values() for block in group]
    return sum(b.attempted for b in blocks), sum(b.failed for b in blocks)
