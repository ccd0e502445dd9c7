"""Where the benchmark runs: import path, pinned environment, host description."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: Library thread pools are pinned to one thread so that the only
#: parallelism in a run is the one the workload asks for.
THREAD_VARS = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def bootstrap() -> None:
    """Put this checkout's ``src`` first on the import path.

    The benchmark measures the program beside it and no other copy: a
    checkout without ``src/repro`` is an error, not a reason to fall
    back to an installed package.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: nothing to measure, {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"bench: 'repro' was imported from {repro.__file__}, not from {SRC}"
        )


@contextmanager
def pinned(settings: Dict[str, Optional[str]]) -> Iterator[Path]:
    """Run with a pinned environment and a private scratch directory.

    Every ambient ``REPRO_*`` variable is dropped, then ``settings`` are
    applied (``None`` leaves the variable unset, i.e. the library's own
    default).  The JIT disk cache and every temporary file (service
    spool, compiler output) live under ``bench/out/tmp-<pid>``, inside
    the checkout, and are removed on exit.
    """
    scratch = OUT / f"tmp-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    saved = dict(os.environ)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for name, value in settings.items():
        if value is not None:
            os.environ[name] = value
    os.environ["REPRO_JIT_CACHE"] = str(scratch / "jit-cache")
    os.environ["TMPDIR"] = str(scratch / "tmp")
    for name in THREAD_VARS:
        os.environ[name] = "1"
    tempfile.tempdir = None  # re-read TMPDIR
    try:
        yield scratch
    finally:
        os.environ.clear()
        os.environ.update(saved)
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _command(*argv: str) -> Optional[str]:
    try:
        result = subprocess.run(
            argv, capture_output=True, text=True, timeout=20, cwd=ROOT, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def host_block() -> Dict[str, object]:
    """The host a result was measured on (call inside :func:`pinned`)."""
    import numpy

    from repro.jit.codegen import CFLAGS
    from repro.jit.compile import find_compiler

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level in ("2", "3") and size:
            caches[f"l{level}"] = size
    compiler = find_compiler()
    version = _command(compiler, "--version") if compiler else None
    status = _command("git", "status", "--porcelain")
    return {
        "usable_cpus": usable_cpus(),
        "cpu_model": model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "machine": platform.machine(),
        "cc": version.splitlines()[0] if version else None,
        "cflags": " ".join(CFLAGS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _command("git", "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "env": {
            name: os.environ[name]
            for name in sorted(os.environ)
            if name.startswith("REPRO_") or name in THREAD_VARS
        },
    }
