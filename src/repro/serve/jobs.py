"""Job specifications and the job lifecycle state machine.

A :class:`JobSpec` is the unit of work a client submits: a named
problem (the setups of :mod:`repro.euler.problems`, plus ``exact`` for
exact-Riemann profile requests), its parameters, a
:class:`~repro.euler.solver.SolverConfig`, and a stopping criterion —
plus scheduling attributes (priority, deadline, stream granularity)
that do *not* participate in the result-cache key, because they cannot
change the answer.

A :class:`JobRecord` is the server's view of one submitted job.  Its
``state`` walks the machine::

    QUEUED ──> RUNNING ──> DONE
       │            ├────> FAILED
       │            └────> CANCELLED
       └─────────────────> CANCELLED  (cancelled while queued)

Transitions outside the arrows raise :class:`ServiceError`; terminal
states are final.  There is no edge back to ``QUEUED``: a job gets one
attempt, because every path through the solver stack is deterministic
— a second run of a blown-up job can only reproduce the first, forensic
report included.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ServiceError
from repro.euler.solver import SolverConfig

__all__ = [
    "JobSpec",
    "JobRecord",
    "JobState",
    "PROBLEM_NAMES",
    "TRANSITIONS",
]

#: Problems a job may name.  ``sod``/``lax``/``toro123`` are the 1-D
#: shock tubes, ``sod_2d``/``two_channel`` the 2-D setups, ``exact``
#: an exact-Riemann profile request (no time stepping).
PROBLEM_NAMES = ("sod", "lax", "toro123", "sod_2d", "two_channel", "exact")


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: The legal state machine; see the module docstring's diagram.
TRANSITIONS = {
    JobState.QUEUED: {JobState.RUNNING, JobState.CANCELLED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.CANCELLED},
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.CANCELLED: set(),
}


@dataclass
class JobSpec:
    """One simulation request.

    ``problem_args`` are forwarded to the problem builder (grid sizes,
    Mach number, exit placement...).  Exactly one of ``t_end`` /
    ``max_steps`` must be set for stepping problems (both is also
    legal — whichever bound hits first); ``exact`` instead requires
    ``t`` in ``problem_args``.
    """

    problem: str
    problem_args: Dict[str, object] = field(default_factory=dict)
    config: SolverConfig = field(default_factory=SolverConfig)
    t_end: Optional[float] = None
    max_steps: Optional[int] = None
    #: Lower runs sooner; ties run in submission order.
    priority: int = 0
    #: Wall-clock budget for the run; exceeded => cancelled.
    deadline_s: Optional[float] = None
    #: Include the final primitive state in the result payload.
    return_state: bool = True
    #: Stream a trace record every N steps (progress streaming granularity).
    trace_every: int = 1

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise ConfigurationError(
                f"unknown problem {self.problem!r} (have {PROBLEM_NAMES})"
            )
        if not isinstance(self.config, SolverConfig):
            raise ConfigurationError(
                f"config must be a SolverConfig, got {type(self.config).__name__}"
            )
        if not isinstance(self.problem_args, dict):
            raise ConfigurationError(
                f"problem_args must be a dict, got {type(self.problem_args).__name__}"
            )
        # Coerce every scheduling/stopping field up front, so a wire
        # payload like {"priority": "high"} is rejected at submit time
        # with a client-visible error — not later, inside the dispatcher
        # or to_dict(), where it would kill a supervisor task instead.
        self.priority = self._coerce(int, "priority", self.priority)
        self.t_end = self._coerce(float, "t_end", self.t_end, optional=True)
        self.max_steps = self._coerce(int, "max_steps", self.max_steps, optional=True)
        self.deadline_s = self._coerce(
            float, "deadline_s", self.deadline_s, optional=True
        )
        self.trace_every = self._coerce(int, "trace_every", self.trace_every)
        self.return_state = bool(self.return_state)
        if self.problem == "exact":
            t = self.problem_args.get("t")
            if not isinstance(t, (int, float)) or t <= 0:
                raise ConfigurationError(
                    "problem 'exact' needs problem_args['t'] > 0"
                )
        elif self.t_end is None and self.max_steps is None:
            raise ConfigurationError(
                f"job for problem {self.problem!r} needs t_end and/or max_steps"
            )
        if self.trace_every < 1:
            raise ConfigurationError(
                f"trace_every must be >= 1, got {self.trace_every}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    @staticmethod
    def _coerce(kind, name, value, optional=False):
        """``int(value)``/``float(value)`` with a ConfigurationError on
        anything that does not convert, is not finite (the wire admits
        NaN and Infinity) or is None where not optional."""
        if value is None and optional:
            return None
        try:
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{name} must be {'an int' if kind is int else 'a float'},"
                f" got {value!r}"
            ) from None
        if kind is float and not math.isfinite(converted):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
        return converted

    # -- wire form ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready wire form (config nested via its canonical dict)."""
        return {
            "problem": self.problem,
            "problem_args": dict(self.problem_args),
            "config": self.config.to_dict(),
            "t_end": None if self.t_end is None else float(self.t_end),
            "max_steps": None if self.max_steps is None else int(self.max_steps),
            "priority": int(self.priority),
            "deadline_s": None if self.deadline_s is None else float(self.deadline_s),
            "return_state": bool(self.return_state),
            "trace_every": int(self.trace_every),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected loudly."""
        payload = dict(payload)
        config = payload.pop("config", None)
        if isinstance(config, dict):
            config = SolverConfig.from_dict(config)
        elif config is None:
            config = SolverConfig()
        known = set(cls.__dataclass_fields__) - {"config"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"JobSpec has no fields {sorted(unknown)}"
            )
        return cls(config=config, **payload)

    # -- cache identity -------------------------------------------------

    def cache_key(self) -> str:
        """Stable sha256 identifying the *result* of this spec.

        Only result-affecting fields participate: the problem and its
        arguments, the solver configuration (via its content hash), the
        stopping criterion and ``return_state`` (it changes the payload
        shape).  Priority, deadline and trace granularity are scheduling
        concerns — two specs differing only there are the same
        simulation and share a cache entry.
        """
        identity = {
            "problem": self.problem,
            "problem_args": self.problem_args,
            "config": self.config.content_hash(),
            "t_end": None if self.t_end is None else float(self.t_end),
            "max_steps": None if self.max_steps is None else int(self.max_steps),
            "return_state": bool(self.return_state),
        }
        text = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- batch identity -------------------------------------------------

    #: Problems whose jobs can share one batched engine step (2-D
    #: stepping problems; the 1-D tubes are too cheap to be worth it and
    #: ``exact`` does no stepping at all).
    BATCHABLE_PROBLEMS = ("sod_2d", "two_channel")

    #: Per-problem arguments that pin the member grid shape/spacing and
    #: therefore must agree across a batch.  Everything else
    #: (``mach``, ``exit_start``, ``rho0``, ``p0``...) is a per-member
    #: degree of freedom — it only changes the IC or the boundaries.
    _BATCH_SHAPE_ARGS = {
        "sod_2d": (("nx", 64), ("ny", 16)),
        "two_channel": (("n_cells", 64), ("h", None)),  # h defaults to n_cells/2
    }

    def batch_key(self) -> Optional[str]:
        """Grouping digest for the batch dispatcher, or ``None``.

        Jobs sharing a batch key can be drained into one
        :class:`~repro.euler.solver.EulerEnsemble2D` step: same problem
        family, same grid shape and spacing, same solver config, same
        stopping criterion (the ensemble runs one ``t_end``/``max_steps``
        for the whole batch).  ``None`` marks the job unbatchable: 1-D /
        ``exact`` problems, parallel-solver requests (``workers``), and
        jobs with a deadline (the shard cancel flag is batch-granular,
        which would let one job's deadline cancel its batch mates).
        """
        if self.problem not in self.BATCHABLE_PROBLEMS:
            return None
        if self.deadline_s is not None:
            return None
        if self.problem_args.get("workers"):
            return None
        shape_args = {}
        for name, default in self._BATCH_SHAPE_ARGS[self.problem]:
            value = self.problem_args.get(name, default)
            if value is None and name == "h":
                value = float(shape_args["n_cells"]) / 2.0
            try:
                shape_args[name] = (
                    int(value) if name in ("nx", "ny", "n_cells") else float(value)
                )
            except (TypeError, ValueError):
                return None  # the builder will reject it; don't batch it
        identity = {
            "problem": self.problem,
            "shape_args": shape_args,
            "config": self.config.content_hash(),
            "t_end": None if self.t_end is None else float(self.t_end),
            "max_steps": None if self.max_steps is None else int(self.max_steps),
        }
        text = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class JobRecord:
    """The server's bookkeeping for one submitted job."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    shard: Optional[int] = None
    cached: bool = False
    result: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    cancel_reason: Optional[str] = None
    #: Every event published for this job, in order (stream replay).
    events: List[Dict[str, object]] = field(default_factory=list)

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state`` or raise on an illegal edge."""
        if new_state not in TRANSITIONS[self.state]:
            raise ServiceError(
                f"job {self.job_id}: illegal transition"
                f" {self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        now = time.time()
        if new_state is JobState.RUNNING and self.started is None:
            self.started = now
        if new_state.terminal:
            self.finished = now

    @property
    def terminal(self) -> bool:
        return self.state.terminal

    def status(self) -> Dict[str, object]:
        """JSON-ready status summary (the ``status`` endpoint payload)."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "problem": self.spec.problem,
            "cached": self.cached,
            "shard": self.shard,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "cancel_reason": self.cancel_reason,
            "error": self.error,
        }
