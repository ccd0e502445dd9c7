"""Compiling and caching the generated kernels.

Pure-stdlib tooling: the generated C is built with whatever system C
compiler is on ``PATH`` (``cc``, ``gcc`` or ``clang``; override with
``REPRO_JIT_CC``) and loaded through :mod:`ctypes`.

**The toolchain** is resolved once per process (:func:`toolchain`): the
compiler's path, its version line, the flag tuple
(:data:`repro.jit.codegen.CFLAGS` — the vector build) and what
``-march=native`` resolves to on this host, all from one
``cc -### -march=native`` call that runs no compilation.  There is one
build: no environment variable or config field picks flags.  A compiler
that rejects the vector flags gets exactly one retry with
:data:`~repro.jit.codegen.REFERENCE_CFLAGS` and a counted
``flag fallback`` reason in :func:`compile_stats`; the process then
stays on those flags.

**Cache entries** are named ``sha256(source ‖ compiler ‖ version ‖
flags ‖ target)``.  The source embeds the full specialization (every
constant as a hex float), but the *object* also depends on who built it
for which CPU: an ``-march=native`` object restored onto another CPU, or
another compiler's or flag set's object, is a different name and so is
never looked up.  An entry is three files — ``.so``, the ``.c`` it was
built from, and a ``.vec`` sidecar — published atomically and evicted
together; a warm cache turns "compile on first use" into one ``dlopen``.

**The vector report.**  Every build asks the compiler which loops it
vectorised (``-fopt-info-vec-optimized`` for gcc, ``-Rpass=
loop-vectorize`` for clang) and keeps, for the sweep's cross loop and
the dt pass's cell loop of *this* kernel, the vector width in bytes:
``{"sweep": 64, "dt": 64}``; ``0`` means compiled but scalar, ``None``
that this compiler does not say.  It is stored in the sidecar, read back
on a disk hit, and published as :attr:`CompiledKernel.vector`.

The cache directory is ``REPRO_JIT_CACHE`` or
``~/.cache/repro-jit``.  A cached entry that will not load is unlinked
and rebuilt once, so a torn file cannot outlive the process that finds
it.  The directory is bounded: after every build the least recently
used entries beyond :data:`MAX_CACHE_ENTRIES` are unlinked (a disk hit
refreshes an entry's mtime).  Failures (no compiler, cc errors,
unwritable cache) raise
:class:`CompileError`; the backend catches it, counts the reason, and
keeps the NumPy path — compilation problems can never change results,
only speed.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.jit.codegen import (
    CFLAGS,
    DT_CELL_LOOP,
    REFERENCE_CFLAGS,
    SWEEP_CROSS_LOOP,
    check_value_neutral,
)

__all__ = [
    "CompileError",
    "CompiledKernel",
    "Toolchain",
    "find_compiler",
    "toolchain",
    "cache_dir",
    "load_kernel",
    "compile_stats",
]

#: Environment overrides.
CC_ENV = "REPRO_JIT_CC"
CACHE_ENV = "REPRO_JIT_CACHE"

_CANDIDATE_COMPILERS = ("cc", "gcc", "clang")

#: Most entries (``.so`` + ``.c`` + ``.vec``) kept on disk — over twice
#: the 232-spec method matrix, so only stale generations are ever evicted.
MAX_CACHE_ENTRIES = 512

#: Process-wide compile/cache counters (exposed via engine counters and
#: the step trace).  ``flag_fallbacks``: reason -> times a compiler
#: rejected the vector flags and the reference flags served instead.
_STATS = {
    "compiles": 0,
    "compile_seconds": 0.0,
    "cache_hits": 0,
    "cache_misses": 0,
    "evictions": 0,
    "flag_fallbacks": {},
}

#: In-process kernel cache: entry name -> loaded CompiledKernel.
_LOADED: Dict[str, "CompiledKernel"] = {}

#: ``REPRO_JIT_CC`` value (None = search PATH) -> resolved Toolchain.
_TOOLCHAINS: Dict[Optional[str], "Toolchain"] = {}

#: How each compiler family is asked for, and answers with, the loops it
#: vectorised: (flag, report-line pattern -> (line, width), bytes per
#: unit of width).
_VECTOR_REPORTS = {
    "gcc": (
        "-fopt-info-vec-optimized",
        re.compile(r":(\d+):\d+: optimized: loop vectorized using (\d+) byte"),
        1,
    ),
    "clang": (
        "-Rpass=loop-vectorize",
        re.compile(r":(\d+):\d+: remark: vectorized loop \(vectorization width: (\d+)"),
        8,  # width is in doubles
    ),
}


class CompileError(ReproError):
    """Kernel compilation or loading failed (NumPy fallback follows)."""


class _CompilerRejected(CompileError):
    """The compiler itself exited non-zero (as opposed to I/O trouble)."""


def find_compiler() -> Optional[str]:
    """Path of the C compiler to use, or None when none is available."""
    override = os.environ.get(CC_ENV)
    if override:
        return shutil.which(override)
    for name in _CANDIDATE_COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-jit"


def compile_stats() -> Dict[str, object]:
    """Snapshot of the process-wide compile/cache counters."""
    snapshot = dict(_STATS)
    snapshot["flag_fallbacks"] = dict(_STATS["flag_fallbacks"])
    return snapshot


# -- the toolchain ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Toolchain:
    """Everything besides the source text that a built object depends on."""

    compiler: str  # resolved path
    version: str  # the compiler's version line, "unknown" if it has none
    flags: Tuple[str, ...]
    #: What ``-march=native`` means here (CPU name + a hash of the
    #: feature switches), or just the machine type for flags without it.
    target: str

    @property
    def family(self) -> Optional[str]:
        """``"gcc"``, ``"clang"`` or None (no known vector report)."""
        for family in ("clang", "gcc"):  # clang's line can mention gcc
            if family in self.version.lower():
                return family
        return None

    def entry(self, source: str) -> str:
        """The cache entry name of ``source`` built by this toolchain."""
        digest = hashlib.sha256(source.encode())
        for part in (self.compiler, self.version, " ".join(self.flags), self.target):
            digest.update(b"\0" + part.encode())
        return digest.hexdigest()

    def reference(self) -> "Toolchain":
        """The same compiler with :data:`REFERENCE_CFLAGS` — no
        ``-march``, so the object runs on any CPU of this machine type."""
        return dataclasses.replace(
            self, flags=REFERENCE_CFLAGS, target=os.uname().machine
        )


def _cpu_flags_target() -> str:
    """The host CPU as the kernel reports it, for a compiler that will
    not say what ``-march=native`` means."""
    flags = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    flags = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256(flags.encode()).hexdigest()[:12]
    return f"{os.uname().machine}-{digest}"


def _probe(compiler: str) -> Tuple[str, str]:
    """``(version line, native target)`` from one ``-###`` driver call:
    it prints the version and the fully resolved backend command line
    (``-march=native`` expanded) and compiles nothing."""
    machine_flags = [flag for flag in CFLAGS if flag.startswith("-m")]
    try:
        result = subprocess.run(
            [compiler, "-###", *machine_flags, "-x", "c", "-c", os.devnull],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        lines = (result.stderr + result.stdout).splitlines()
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    version = next((line.strip() for line in lines if " version " in line), "unknown")
    switches = []
    for line in lines:
        if "cc1" not in line:
            continue
        tokens = [token.strip('"') for token in line.split()]
        for before, token in zip([""] + tokens, tokens):
            # gcc: -march=... -mavx512f ... --param l1-cache-size=...;
            # clang: -target-cpu NAME -target-feature +avx512f ...
            if token.startswith("-m") or before in (
                "--param",
                "-target-cpu",
                "-target-feature",
                "-tune-cpu",
            ):
                switches.append(token)
        break
    if not switches:
        return version, _cpu_flags_target()
    name = next(
        (
            token.split("=", 1)[1]
            for token in switches
            if token.startswith(("-march=", "-mcpu="))
        ),
        switches[0],
    )
    digest = hashlib.sha256(" ".join(switches).encode()).hexdigest()[:12]
    return version, f"{name}-{digest}"


def _cc_override() -> Optional[str]:
    return os.environ.get(CC_ENV) or None


def toolchain() -> Toolchain:
    """The process's toolchain for the current ``REPRO_JIT_CC`` —
    resolved (one subprocess) on first use, a dict lookup after."""
    override = _cc_override()
    found = _TOOLCHAINS.get(override)
    if found is None:
        compiler = find_compiler()
        if compiler is None:
            raise CompileError(
                "no C compiler found (looked for "
                f"{', '.join(_CANDIDATE_COMPILERS)}; set {CC_ENV} to override)"
            )
        version, target = _probe(compiler)
        found = Toolchain(compiler, version, tuple(CFLAGS), target)
        _TOOLCHAINS[override] = found
    return found


# -- loading ------------------------------------------------------------


class CompiledKernel:
    """A loaded specialization: the step, stage, sweep and dt entry points.

    ``step(stages, n, seconds, flagged)`` runs the ``n`` stages of one
    Runge-Kutta step from an array of ``repro_stage`` structs
    (:data:`repro.jit.codegen.STAGE_FIELDS`), returning the admissibility
    flags of the first stage that raised any and its index in
    ``*flagged``; ``stage(plan, phases, worker, workers, seconds)`` runs
    some phases of one stage for one worker of a team and returns the
    flags; ``sweep(padded, out, scratch, cells, cross,
    gamma, dx)`` and ``dt(u, prim, group_max, groups, cells_per_group,
    gamma, *spacing)`` take C-contiguous float64 arrays; argument
    marshalling lives in :mod:`repro.jit.backend`.  :attr:`vector` is what the compiler
    reported for this object's two point loops, in bytes per vector:
    ``{"sweep": 64, "dt": 64}``; 0 = scalar, None = not reported.
    """

    def __init__(
        self,
        library: ctypes.CDLL,
        path: Path,
        ndim: int,
        vector: Dict[str, Optional[int]],
    ):
        self.path = path
        self.vector = vector
        self._library = library
        double_p = ctypes.c_void_p  # addresses, see backend._ptr
        self.step = library.repro_jit_step
        self.step.restype = ctypes.c_long
        self.step.argtypes = [double_p, ctypes.c_long, double_p, double_p]
        self.stage = library.repro_jit_stage
        self.stage.restype = ctypes.c_long
        self.stage.argtypes = [
            double_p,
            ctypes.c_long,
            ctypes.c_long,
            ctypes.c_long,
            double_p,
        ]
        self.sweep = library.repro_jit_sweep
        self.sweep.restype = None
        self.sweep.argtypes = [
            double_p,
            double_p,
            double_p,
            ctypes.c_long,
            ctypes.c_long,
            ctypes.c_double,
            ctypes.c_double,
        ]
        self.dt = library.repro_jit_dt
        self.dt.restype = None
        self.dt.argtypes = [
            double_p,
            double_p,
            double_p,
            ctypes.c_long,
            ctypes.c_long,
            ctypes.c_double,
        ] + [ctypes.c_double] * ndim


def load_kernel(source: str, ndim: int) -> CompiledKernel:
    """Build (or reuse) the shared object for ``source`` and load it."""
    chain = toolchain()
    try:
        return _load(source, ndim, chain)
    except _CompilerRejected as error:
        if chain.flags == REFERENCE_CFLAGS:
            raise
        # One retry.  If the reference flags build what the vector flags
        # could not, the flags were the problem: count it and stop
        # offering them to this compiler.  If not, the second error
        # (the source's, or the compiler's own) is the one to report.
        kernel = _load(source, ndim, chain.reference())
        reason = f"flag fallback: {error}"
        fallbacks = _STATS["flag_fallbacks"]
        fallbacks[reason] = fallbacks.get(reason, 0) + 1
        _TOOLCHAINS[_cc_override()] = chain.reference()
        return kernel


def _load(source: str, ndim: int, chain: Toolchain) -> CompiledKernel:
    entry = chain.entry(source)
    kernel = _LOADED.get(entry)
    if kernel is not None:
        _STATS["cache_hits"] += 1
        return kernel

    directory = cache_dir()
    shared_object = directory / f"{entry}.so"
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise CompileError(
            f"cannot create jit cache directory {directory}: {error}"
        ) from error

    # An entry is its .so *and* its report: one without the other (an
    # eviction caught halfway) is a miss.
    vector = _read_sidecar(shared_object) if shared_object.exists() else None
    cached = vector is not None
    if cached:
        _STATS["cache_hits"] += 1
        try:
            os.utime(shared_object)  # eviction is least-recently-*used*
        except OSError:
            pass
    else:
        _STATS["cache_misses"] += 1
        vector = _build(source, chain, directory, shared_object)

    try:
        library = ctypes.CDLL(str(shared_object))
    except OSError as error:
        if not cached:
            raise CompileError(
                f"cannot load compiled kernel {shared_object}: {error}"
            ) from error
        # A pre-existing entry that will not load (truncated, corrupt)
        # would otherwise disable this specialization in every later
        # process: drop it, rebuild once.
        _STATS["cache_misses"] += 1
        try:
            shared_object.unlink()
            vector = _build(source, chain, directory, shared_object)
            library = ctypes.CDLL(str(shared_object))
        except OSError as retry_error:
            raise CompileError(
                f"cannot replace unloadable cached kernel {shared_object}:"
                f" {retry_error}"
            ) from retry_error
    kernel = CompiledKernel(library, shared_object, ndim, vector)
    _LOADED[entry] = kernel
    return kernel


def _read_sidecar(shared_object: Path) -> Optional[Dict[str, Optional[int]]]:
    """The vector report stored beside ``shared_object``, or None when
    it is missing or not what :func:`_build` writes."""
    try:
        report = json.loads(shared_object.with_suffix(".vec").read_text())
        return {loop: report[loop] for loop in ("sweep", "dt")}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _vector_report(
    chain: Toolchain, source: str, diagnostics: str
) -> Dict[str, Optional[int]]:
    """Widest vector (bytes) the compiler reports for each of the two
    point loops of ``source``; 0 if it reports none for that line."""
    family = chain.family
    if family is None:
        return {"sweep": None, "dt": None}
    _, pattern, unit = _VECTOR_REPORTS[family]
    widths: Dict[int, int] = {}
    for line, width in pattern.findall(diagnostics):
        widths[int(line)] = max(widths.get(int(line), 0), unit * int(width))
    lines = source.split("\n")
    report: Dict[str, Optional[int]] = {}
    for loop, header in (("sweep", SWEEP_CROSS_LOOP), ("dt", DT_CELL_LOOP)):
        # A source without the loop has nothing to observe.
        report[loop] = (
            widths.get(lines.index(header) + 1, 0) if header in lines else None
        )
    return report


def _build(
    source: str, chain: Toolchain, directory: Path, shared_object: Path
) -> Dict[str, Optional[int]]:
    """Compile ``source`` and publish ``.c``, ``.vec`` and (last, so a
    visible ``.so`` always has its report) the ``.so``."""
    check_value_neutral(chain.flags)
    entry = shared_object.stem
    report_flags = [_VECTOR_REPORTS[chain.family][0]] if chain.family else []
    started = perf_counter()
    source_path = shared_object.with_suffix(".c")
    temps = []
    for suffix in (".so", ".vec"):
        fd, name = tempfile.mkstemp(
            suffix=suffix, prefix=f".{entry}.", dir=str(directory)
        )
        os.close(fd)
        temps.append(name)
    tmp_object, tmp_sidecar = temps
    try:
        source_path.write_text(source)
        command = [
            chain.compiler,
            *chain.flags,
            *report_flags,
            "-o",
            tmp_object,
            str(source_path),
        ]
        result = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
        if result.returncode != 0:
            message = result.stderr.strip()[:500] or f"exit {result.returncode}"
            raise _CompilerRejected(
                f"{chain.compiler} {' '.join(chain.flags)} failed "
                f"({result.returncode}) for kernel {entry[:12]}: {message}"
            )
        vector = _vector_report(chain, source, result.stderr)
        Path(tmp_sidecar).write_text(json.dumps(vector))
        # Atomic publish so concurrent processes never load a torn .so.
        os.replace(tmp_sidecar, shared_object.with_suffix(".vec"))
        os.replace(tmp_object, shared_object)
    except OSError as error:
        raise CompileError(f"kernel build I/O failed: {error}") from error
    finally:
        for name in temps:
            if os.path.exists(name):
                try:
                    os.unlink(name)
                except OSError:
                    pass
        _STATS["compiles"] += 1
        _STATS["compile_seconds"] += perf_counter() - started
    _evict(directory, keep=shared_object)
    return vector


def _evict(directory: Path, keep: Path) -> None:
    """Unlink the oldest-mtime entries beyond :data:`MAX_CACHE_ENTRIES`,
    never ``keep`` (the one just published).  An entry goes whole — the
    ``.so`` first, so it stops being found, then its ``.c`` and ``.vec``.
    Other processes evict the same directory, so a file vanishing
    underfoot is not an error.  Entries named by an older scheme
    (``sha256(source)`` alone) are never looked up; they age out here."""

    def mtime(path: Path) -> float:
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    # [!.]: another build's unpublished temp is a dotfile
    entries = sorted(directory.glob("[!.]*.so"), key=mtime)
    for path in entries[: max(0, len(entries) - MAX_CACHE_ENTRIES)]:
        if path != keep:
            path.unlink(missing_ok=True)
            path.with_suffix(".c").unlink(missing_ok=True)
            path.with_suffix(".vec").unlink(missing_ok=True)
            _STATS["evictions"] += 1
