"""The service's result cache.

:class:`ResultCache` holds completed-run result payloads keyed on the
canonical :meth:`~repro.serve.jobs.JobSpec.cache_key` (problem + args +
``SolverConfig.content_hash()`` + stopping criterion).  A hit answers a
submit without touching the queue or a shard, and returns the *stored
payload verbatim*, so a cached response is bitwise identical to the
cold run that populated it.

Its hit/miss/eviction counters are a ``kind: "cache"`` record — the
same JSONL schema family as :mod:`repro.obs.export`.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import OrderedDict
from typing import Dict, Optional

from repro.errors import ConfigurationError

__all__ = ["ResultCache"]

_HEX_KEY = re.compile(r"^[0-9a-f]{8,128}$")


class ResultCache:
    """Bounded LRU of completed-run result payloads.

    Keys are :meth:`JobSpec.cache_key` hex digests; values are the
    ``done`` event payloads exactly as the worker produced them.  Not
    thread-safe — it lives on the server's event loop.

    With ``spill_dir`` set, every stored payload is also written to
    ``<spill_dir>/<key>.json`` (atomically: temp file + ``os.replace``),
    and a memory miss falls back to the directory before reporting a
    miss — so cached results survive a service restart.  JSON round
    trips floats through ``repr``, which is exact, so a disk hit is
    bitwise identical to the in-memory payload it spilled from.  Disk
    I/O failures are counted, never raised: the cache degrades to
    memory-only rather than failing a lookup.
    """

    def __init__(
        self,
        max_entries: int = 256,
        spill_dir: Optional[str] = None,
        max_spill_entries: Optional[int] = None,
    ):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if max_spill_entries is not None and max_spill_entries < 1:
            raise ConfigurationError(
                f"max_spill_entries must be >= 1, got {max_spill_entries}"
            )
        self.max_entries = max_entries
        self.spill_dir = spill_dir
        #: Spill-file budget; the directory never holds more than this
        #: many ``<key>.json`` files.  Defaults to 4x the memory budget
        #: (disk is the restart-survival layer, so it outlives memory
        #: churn, but it must not grow without bound).
        self.max_spill_entries = (
            max_spill_entries if max_spill_entries is not None else 4 * max_entries
        )
        self._entries: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        #: LRU of keys with a live spill file, oldest first.
        self._spilled: "OrderedDict[str, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_writes = 0
        self.disk_errors = 0
        self.disk_evictions = 0
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            self._adopt_spilled_files()

    def _adopt_spilled_files(self) -> None:
        """Register spill files left by a previous process, oldest first,
        so the budget covers them too."""
        try:
            with os.scandir(self.spill_dir) as it:
                found = [
                    (entry.stat().st_mtime, entry.name[: -len(".json")])
                    for entry in it
                    if entry.name.endswith(".json")
                    and _HEX_KEY.match(entry.name[: -len(".json")])
                ]
        except OSError:
            self.disk_errors += 1
            return
        for _, key in sorted(found):
            self._spilled[key] = None
        self._evict_spilled_over_budget()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Dict[str, object]]:
        payload = self._entries.get(key)
        if payload is None:
            payload = self._load_spilled(key)
            if payload is None:
                self.misses += 1
                return None
            # Promote without re-spilling: the bytes on disk are already
            # this payload.
            self._entries[key] = payload
            self._evict_over_budget()
            self.disk_hits += 1
            if key in self._spilled:
                self._spilled.move_to_end(key)
        self._entries.move_to_end(key)
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, object]) -> None:
        self._entries[key] = payload
        self._entries.move_to_end(key)
        self._evict_over_budget()
        self._spill(key, payload)

    def _evict_over_budget(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- disk spill ------------------------------------------------------

    def _spill_path(self, key: str) -> Optional[str]:
        # Keys are cache_key() sha256 hex digests; refuse anything that
        # could escape the spill directory when used as a file name.
        if self.spill_dir is None or not _HEX_KEY.match(key):
            return None
        return os.path.join(self.spill_dir, f"{key}.json")

    def _spill(self, key: str, payload: Dict[str, object]) -> None:
        path = self._spill_path(key)
        if path is None:
            return
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=f".{key[:16]}.", suffix=".tmp", dir=self.spill_dir
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            self.disk_writes += 1
        except (OSError, TypeError, ValueError):
            # OSError: disk I/O; TypeError/ValueError: json.dump on an
            # unserializable or circular payload.  Either way the cache
            # degrades to memory-only instead of failing put().
            self.disk_errors += 1
            return
        self._spilled[key] = None
        self._spilled.move_to_end(key)
        self._evict_spilled_over_budget()

    def _evict_spilled_over_budget(self) -> None:
        while len(self._spilled) > self.max_spill_entries:
            stale, _ = self._spilled.popitem(last=False)
            path = self._spill_path(stale)
            if path is None:  # pragma: no cover - only hex keys are tracked
                continue
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            except OSError:
                self.disk_errors += 1
            self.disk_evictions += 1

    def _load_spilled(self, key: str) -> Optional[Dict[str, object]]:
        path = self._spill_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            self.disk_errors += 1
            return None

    def clear(self) -> None:
        """Drop all in-memory entries (spilled files stay on disk);
        counters keep their lifetime totals."""
        self._entries.clear()

    def stats(self) -> Dict[str, object]:
        """Counter snapshot (``kind: "cache"`` — JSONL-ready)."""
        lookups = self.hits + self.misses
        return {
            "kind": "cache",
            "cache": "result",
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "spill_dir": self.spill_dir,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "disk_errors": self.disk_errors,
            "disk_evictions": self.disk_evictions,
            "max_spill_entries": self.max_spill_entries,
        }
