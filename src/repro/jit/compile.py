"""Compiling and caching the generated kernels.

Pure-stdlib tooling: the generated C is built with whatever system C
compiler is on ``PATH`` (``cc``, ``gcc`` or ``clang``; override with
``REPRO_JIT_CC``) and loaded through :mod:`ctypes`.  Shared objects are
cached on disk keyed by the SHA-256 of the source — the source embeds
the full specialization (every constant as a hex float), so the hash
*is* the specialization key and survives across processes; a warm cache
turns "compile on first use" into a single ``dlopen``.

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
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

from repro.errors import ReproError
from repro.jit.codegen import CFLAGS

__all__ = [
    "CompileError",
    "CompiledKernel",
    "find_compiler",
    "cache_dir",
    "load_kernel",
    "compile_stats",
]

#: Environment overrides.
CC_ENV = "REPRO_JIT_CC"
CACHE_ENV = "REPRO_JIT_CACHE"

_CANDIDATE_COMPILERS = ("cc", "gcc", "clang")

#: Most ``<sha>.so`` + ``<sha>.c`` pairs kept on disk — over twice the
#: 232-spec method matrix, so only stale generations are ever evicted.
MAX_CACHE_ENTRIES = 512

#: Process-wide compile/cache counters (exposed via engine counters and
#: the step trace).
_STATS = {
    "compiles": 0,
    "compile_seconds": 0.0,
    "cache_hits": 0,
    "cache_misses": 0,
    "evictions": 0,
}

#: In-process kernel cache: source hash -> loaded CompiledKernel.
_LOADED: Dict[str, "CompiledKernel"] = {}


class CompileError(ReproError):
    """Kernel compilation or loading failed (NumPy fallback follows)."""


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


def compile_stats() -> Dict[str, float]:
    """Snapshot of the process-wide compile/cache counters."""
    return dict(_STATS)


class CompiledKernel:
    """A loaded specialization: the sweep and dt entry points.

    ``sweep(padded, out, scratch, cells, cross, gamma, dx)`` and
    ``dt(u, prim, group_max, groups, cells_per_group, gamma, *spacing)``
    take C-contiguous float64 arrays; argument marshalling lives in
    :mod:`repro.jit.backend`.
    """

    def __init__(self, library: ctypes.CDLL, path: Path, ndim: int):
        self.path = path
        self._library = library
        double_p = ctypes.c_void_p  # addresses, see backend._ptr
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
    digest = hashlib.sha256(source.encode()).hexdigest()
    kernel = _LOADED.get(digest)
    if kernel is not None:
        _STATS["cache_hits"] += 1
        return kernel

    directory = cache_dir()
    shared_object = directory / f"{digest}.so"
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise CompileError(
            f"cannot create jit cache directory {directory}: {error}"
        ) from error

    cached = shared_object.exists()
    if cached:
        _STATS["cache_hits"] += 1
        try:
            os.utime(shared_object)  # eviction is least-recently-*used*
        except OSError:
            pass
    else:
        _STATS["cache_misses"] += 1
        _build(source, digest, directory, shared_object)

    try:
        library = ctypes.CDLL(str(shared_object))
    except OSError as error:
        if not cached:
            raise CompileError(
                f"cannot load compiled kernel {shared_object}: {error}"
            ) from error
        # A pre-existing entry that will not load (truncated, corrupt,
        # another architecture's) would otherwise disable this
        # specialization in every later process: drop it, rebuild once.
        _STATS["cache_misses"] += 1
        try:
            shared_object.unlink()
            _build(source, digest, directory, shared_object)
            library = ctypes.CDLL(str(shared_object))
        except OSError as retry_error:
            raise CompileError(
                f"cannot replace unloadable cached kernel {shared_object}:"
                f" {retry_error}"
            ) from retry_error
    kernel = CompiledKernel(library, shared_object, ndim)
    _LOADED[digest] = kernel
    return kernel


def _build(
    source: str, digest: str, directory: Path, shared_object: Path
) -> None:
    compiler = find_compiler()
    if compiler is None:
        raise CompileError(
            "no C compiler found (looked for "
            f"{', '.join(_CANDIDATE_COMPILERS)}; set {CC_ENV} to override)"
        )
    started = perf_counter()
    source_path = directory / f"{digest}.c"
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix=f".{digest}.", dir=str(directory)
    )
    os.close(fd)
    try:
        source_path.write_text(source)
        command = [compiler, *CFLAGS, "-o", tmp_name, str(source_path)]
        result = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
        if result.returncode != 0:
            raise CompileError(
                f"{compiler} failed ({result.returncode}) for kernel "
                f"{digest[:12]}: {result.stderr.strip()[:500]}"
            )
        # Atomic publish so concurrent processes never load a torn .so.
        os.replace(tmp_name, shared_object)
    except OSError as error:
        raise CompileError(f"kernel build I/O failed: {error}") from error
    finally:
        if os.path.exists(tmp_name):
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        _STATS["compiles"] += 1
        _STATS["compile_seconds"] += perf_counter() - started
    _evict(directory, keep=shared_object)


def _evict(directory: Path, keep: Path) -> None:
    """Unlink the oldest-mtime entries beyond :data:`MAX_CACHE_ENTRIES`,
    never ``keep`` (the one just published).  Other processes evict the
    same directory, so a file vanishing underfoot is not an error."""

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
            _STATS["evictions"] += 1
