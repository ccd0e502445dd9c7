"""Named, lazily allocated scratch buffers for the stepping engine.

The paper credits SaC's compiler-managed memory reuse for much of its
performance ("liberates the programmer from ... space management",
Section 2); ``sac/opt/memreuse.py`` reproduces that statically for the
SaC pipeline.  :class:`Workspace` is the same idea for the golden NumPy
solver: the engine's buffers and its programs' temporaries are drawn
from a workspace keyed by ``(name, shape, dtype)`` — a NumPy program
(:mod:`repro.jit.numpy_eval`: the flux and dt programs of the engine's
spec, the standalone conversion, the Runge-Kutta combines) takes all its scratch slots as one
named block per shape — so the first step of a solver allocates
everything and subsequent steps allocate nothing.

A workspace is owned by exactly one :class:`~repro.euler.engine.StepEngine`
(one per solver) and is not thread-safe: buffers are never shared
between workspaces, and an engine whose strips run on the worker team
draws one window set per *worker* on the calling thread before the first
round starts.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["Workspace"]

_Key = Tuple[str, Tuple[int, ...], str]


class Workspace:
    """A pool of named scratch arrays, allocated on first request.

    ``array(name, shape, dtype)`` returns the same buffer for the same
    key on every call; contents are *not* cleared between requests, so
    callers must fully overwrite a buffer before reading it.  Names are
    namespaced by convention (``"engine.flux"``, ``"rk.k"``, a program's
    ``"flux_hllc_pc_minmod_primitive_2d.f64"``, ...) so two kernels
    sharing a workspace never collide unless they share a buffer on
    purpose.
    """

    __slots__ = ("_arrays", "_asked")

    def __init__(self) -> None:
        self._arrays: Dict[_Key, np.ndarray] = {}
        #: The same buffers under the keys as asked for — a repeated
        #: request skips normalising shape and dtype (a hot path: the
        #: engine asks per step, a NumPy program per strip).
        self._asked: Dict[tuple, np.ndarray] = {}

    def array(self, name: str, shape: Sequence[int], dtype=float) -> np.ndarray:
        """The buffer registered under ``(name, shape, dtype)``, allocating once."""
        asked = (name, shape, dtype)
        try:
            return self._asked[asked]
        except (KeyError, TypeError):  # first asked so, or unhashable
            pass
        key = (name, tuple(map(int, shape)), np.dtype(dtype).str)
        buffer = self._arrays.get(key)
        if buffer is None:
            buffer = np.empty(key[1], dtype=dtype)
            self._arrays[key] = buffer
        if type(shape) is tuple:  # compares by value, unlike a generator
            with suppress(TypeError):
                self._asked[asked] = buffer
        return buffer

    def like(self, name: str, reference: np.ndarray) -> np.ndarray:
        """A buffer with the same shape and dtype as ``reference``."""
        return self.array(name, reference.shape, reference.dtype)

    def cell_like(self, name: str, reference: np.ndarray, dtype=None) -> np.ndarray:
        """A per-cell (last axis dropped) buffer matching ``reference``."""
        return self.array(
            name, reference.shape[:-1], reference.dtype if dtype is None else dtype
        )

    @property
    def nbytes(self) -> int:
        """Total bytes held by all buffers (the engine's scratch footprint)."""
        return sum(buffer.nbytes for buffer in self._arrays.values())

    def __len__(self) -> int:
        return len(self._arrays)

    def buffers(self) -> Iterator[np.ndarray]:
        """All live buffers (used by the isolation tests)."""
        return iter(self._arrays.values())
