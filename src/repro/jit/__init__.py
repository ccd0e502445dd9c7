"""``repro.jit`` — lazy-specializing native compilation of the hot kernels.

The paper credits SaC's with-loop folding for fusing the
``reconstruct -> riemann -> difference`` producer/consumer chains that
dominate every Euler step; pure NumPy cannot fuse the loops, only the
program (~82% of step time in ``riemann + difference`` at 400x400).
This package holds the one program per method tuple and both of its
executors — the NumPy interpreter and the compile layer that closes the
gap — under the repo's core contract: **bit-for-bit identity** between
them and with the allocating references.

How it works
------------

* A *specialization* is the tuple ``(riemann, reconstruction, limiter,
  variables, ndim)`` over float64 — exactly the method menu of
  :class:`~repro.euler.solver.SolverConfig`
  (:data:`repro.euler.riemann.RIEMANN_SOLVERS`
  and friends).  :mod:`repro.jit.kernels` assembles, per
  specialization, a straight-line SSA kernel IR (:mod:`repro.jit.ir`)
  for the fused per-face flux computation and the fused per-cell
  convert+eigenvalue dt pass, using the *emitter* functions that live
  next to the allocating reference functions they define (``emit_*`` in
  :mod:`repro.euler.riemann`, :mod:`repro.euler.reconstruction`,
  :mod:`repro.euler.state`, :mod:`repro.euler.eos`).  That verified IR
  pair, acquired once per spec per process
  (:func:`repro.jit.kernels.kernel_irs`), is also what the engine's
  NumPy arm interprets (:func:`repro.jit.numpy_eval.kernel_programs`):
  one program, two executors.
* Every emitted op is one rounded operation of the reference — same
  operation, same order, no algebraic rewrites (``x ** 2`` becomes
  ``x * x`` because that is NumPy's own fast path; ``np.minimum``'s
  NaN propagation is reproduced with an explicit helper, not ``fmin``).
  The IR is checked by :func:`repro.analysis.jit_verify.verify_kernel`
  before any C is generated; diagnostics name the failing
  specialization.
* :mod:`repro.jit.codegen` lowers the verified IR to C99 and
  :mod:`repro.jit.compile` builds it with the system C compiler under
  one flag tuple, the *vector build* (:data:`repro.jit.codegen.CFLAGS`:
  ``-O3 -march=native -fno-math-errno -fno-trapping-math -fPIC -shared
  -ffp-contract=off``): the compiler runs the per-face and per-cell
  loops in SIMD lanes, every lane the same IEEE operation on the same
  operands — contraction off so no multiply+add becomes an FMA with
  different rounding, and no value-changing flag admitted
  (:func:`repro.jit.codegen.check_value_neutral`).  Whether the loops
  of a given kernel were vectorised, and how wide, is read back from
  the compiler and published (``stats()["vector"]``).  The shared
  object is cached under ``sha256(source, compiler, flags, target)`` —
  the object depends on who built it for which CPU, not on the source
  alone — and loaded through :mod:`ctypes`.  First use compiles; later
  engines — and later processes on the same kind of host — reuse the
  cached ``.so``.
* One level up, :mod:`repro.jit.plan` states what one Runge-Kutta
  *stage* of an engine runs — conversion with admissibility flags, both
  strip sweeps (window, ghost fill from the boundary conditions' fill
  records, flux, difference, write or accumulate) and the RK combine —
  and every translation unit carries a ``repro_jit_stage`` entry point
  that runs that plan with the strip loop inside C: a stage is one
  ctypes crossing, an RK3 step four with its dt pass.
* :class:`repro.jit.backend.JitBackend` is the ``KernelBackend`` the
  :class:`~repro.euler.engine.StepEngine` dispatches through, stage by
  stage; :mod:`repro.euler.tiling` still governs the working set, the
  strips being the plan's.  Every method tuple has a kernel; a stage
  the compiled path still cannot serve (missing compiler, non-float64
  state, a boundary condition without a fill record) falls back to
  the NumPy interpreter of the same plan, counted and attributed.

Backend selection
-----------------

Resolution order (first match wins):

1. the explicit ``backend=`` argument to ``StepEngine``;
2. a :func:`backend_override` context (used by tests/benchmarks);
3. the ``REPRO_JIT`` environment variable — ``0``/``off``/``numpy``
   forces NumPy, ``1``/``on``/``jit`` requests the compiled path
   (still falling back, counted, if compilation fails);
4. *auto*: use the compiled path when a C compiler is available.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ConfigurationError

__all__ = [
    "JIT_ENV",
    "THREADS_ENV",
    "available",
    "backend_override",
    "resolve_backend_name",
    "resolve_jit_threads",
    "create_backend",
]

#: Environment switch: "0"/"off"/"numpy" disables the compiled path,
#: "1"/"on"/"jit" requests it, unset means auto-detect.
JIT_ENV = "REPRO_JIT"

#: Worker count of the strip team when the solver names none (see
#: :class:`repro.jit.backend.JitBackend`).  Unset or 1 keeps the one
#: crossing per stage; >= 2 runs each phase's strips on the
#: process-wide worker team (:mod:`repro.par.pool`) as GIL-releasing
#: ctypes calls *iff* the dependence prover licensed the plan.
THREADS_ENV = "REPRO_JIT_THREADS"

_NUMPY_WORDS = frozenset({"0", "off", "numpy", "false", "no"})
_JIT_WORDS = frozenset({"1", "on", "jit", "true", "yes"})

#: Module-level override installed by :func:`backend_override`.
_OVERRIDE: Optional[str] = None


def available() -> bool:
    """True when a C compiler is on PATH (the auto-mode gate)."""
    from repro.jit.compile import find_compiler

    return find_compiler() is not None


def _parse_env(raw: str) -> str:
    word = raw.strip().lower()
    if word in _NUMPY_WORDS:
        return "numpy"
    if word in _JIT_WORDS:
        return "jit"
    raise ConfigurationError(
        f"{JIT_ENV}={raw!r} is not a backend; use 0/off/numpy or 1/on/jit"
    )


def resolve_backend_name(explicit: Optional[str] = None) -> str:
    """Resolve the backend to use: ``"numpy"`` or ``"jit"``.

    Precedence: ``explicit`` argument > :func:`backend_override` >
    ``REPRO_JIT`` env > auto (jit iff a compiler is available).
    """
    for source, value in (
        ("backend=", explicit),
        ("backend_override()", _OVERRIDE),
    ):
        if value is None:
            continue
        name = str(value).strip().lower()
        if name == "auto":
            break
        if name not in ("numpy", "jit"):
            raise ConfigurationError(
                f"{source} got {value!r}; expected 'numpy', 'jit' or 'auto'"
            )
        return name
    raw = os.environ.get(JIT_ENV)
    if raw is not None:
        return _parse_env(raw)
    return "jit" if available() else "numpy"


def resolve_jit_threads(explicit: Optional[object] = None) -> int:
    """Worker count of the strip team (>= 1).

    ``explicit`` (a solver's ``workers=``) wins over the
    ``REPRO_JIT_THREADS`` environment variable; unset means 1 (the
    serial stage, the bitwise baseline the team must reproduce
    exactly).
    """
    raw = explicit if explicit is not None else os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        count = int(str(raw).strip())
    except ValueError:
        raise ConfigurationError(
            f"workers / {THREADS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if count < 1:
        raise ConfigurationError(
            f"workers / {THREADS_ENV} must be >= 1, got {count}"
        )
    return count


@contextmanager
def backend_override(name: Optional[str]) -> Iterator[None]:
    """Scoped backend selection: ``"numpy"``, ``"jit"``, ``"auto"`` or
    ``None`` (None removes any active override).

    Engines resolve their backend at construction, so the override must
    wrap engine/solver *creation*, not stepping.
    """
    global _OVERRIDE
    if name is not None and str(name).strip().lower() not in (
        "numpy",
        "jit",
        "auto",
    ):
        raise ConfigurationError(
            f"backend_override({name!r}); expected 'numpy', 'jit', 'auto' or None"
        )
    previous = _OVERRIDE
    _OVERRIDE = name if name is None else str(name).strip().lower()
    try:
        yield
    finally:
        _OVERRIDE = previous


def create_backend(config, ndim: int, explicit: Optional[str], threads: int, barrier: str):
    """The engine-side entry point: a :class:`~repro.jit.backend.JitBackend`
    for this config/rank whose strip team has ``threads`` workers of the
    given barrier kind, or ``None`` for the plain NumPy path."""
    if resolve_backend_name(explicit) == "numpy":
        return None
    from repro.jit.backend import JitBackend

    return JitBackend(config, ndim, threads, barrier)
