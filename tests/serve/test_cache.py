"""ResultCache LRU behaviour."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.serve.cache import ResultCache


def test_bad_capacity_rejected():
    with pytest.raises(ConfigurationError):
        ResultCache(max_entries=0)


def test_hit_miss_counters():
    cache = ResultCache(max_entries=4)
    assert cache.get("k1") is None
    cache.put("k1", {"steps": 3})
    assert cache.get("k1") == {"steps": 3}
    assert (cache.hits, cache.misses) == (1, 1)
    stats = cache.stats()
    assert stats["kind"] == "cache" and stats["cache"] == "result"
    assert stats["hit_rate"] == 0.5


def test_returns_stored_payload_verbatim():
    cache = ResultCache()
    payload = {"state": [[1.0, 0.0, 1.0]], "state_sha256": "abc"}
    cache.put("k", payload)
    assert cache.get("k") is payload  # the same object, bitwise identical


def test_lru_eviction_order():
    cache = ResultCache(max_entries=2)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    assert cache.get("a") is not None  # refresh a; b is now the LRU
    cache.put("c", {"v": 3})
    assert cache.evictions == 1
    assert "b" not in cache
    assert "a" in cache and "c" in cache


def test_clear_keeps_lifetime_counters():
    cache = ResultCache()
    cache.put("a", {})
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1


def _hex(i: int) -> str:
    return f"{i:016x}"


def test_spill_dir_bounded_across_churn(tmp_path):
    """Churning keys through the cache must not grow the spill directory
    without bound: evicted spill files are unlinked against a budget.

    Regression: _evict_over_budget only dropped memory entries; every
    key ever put left a ``<key>.json`` on disk forever.
    """
    spill = tmp_path / "spill"
    cache = ResultCache(max_entries=2, spill_dir=str(spill))
    for i in range(20):
        cache.put(_hex(i), {"v": i})
    files = sorted(spill.glob("*.json"))
    assert len(files) <= cache.max_spill_entries < 20
    assert cache.disk_evictions == 20 - cache.max_spill_entries
    # The newest spills survive; the oldest are gone.
    assert (spill / f"{_hex(19)}.json").exists()
    assert not (spill / f"{_hex(0)}.json").exists()
    assert cache.stats()["disk_evictions"] == cache.disk_evictions


def test_explicit_spill_budget(tmp_path):
    spill = tmp_path / "spill"
    cache = ResultCache(max_entries=2, spill_dir=str(spill), max_spill_entries=3)
    for i in range(10):
        cache.put(_hex(i), {"v": i})
    assert len(list(spill.glob("*.json"))) == 3
    assert cache.disk_evictions == 7
    with pytest.raises(ConfigurationError):
        ResultCache(spill_dir=str(spill), max_spill_entries=0)


def test_spill_budget_counts_preexisting_files(tmp_path):
    """A restarted service's budget covers files spilled by the previous
    process, not just this process's writes."""
    spill = tmp_path / "spill"
    first = ResultCache(max_entries=8, spill_dir=str(spill), max_spill_entries=8)
    for i in range(6):
        first.put(_hex(i), {"v": i})
    second = ResultCache(max_entries=8, spill_dir=str(spill), max_spill_entries=8)
    for i in range(6, 12):
        second.put(_hex(i), {"v": i})
    assert len(list(spill.glob("*.json"))) <= 8
    # The survivors are the newest writes.
    assert (spill / f"{_hex(11)}.json").exists()


def test_unserializable_payload_degrades_to_memory_only(tmp_path):
    """A payload json.dump cannot serialize must not raise out of put().

    Regression: _spill only caught OSError, so a TypeError from
    json.dump escaped put() and failed the request the cache was
    supposed to be transparent to.
    """
    cache = ResultCache(max_entries=4, spill_dir=str(tmp_path / "s"))
    poisoned = {"blob": object()}
    cache.put(_hex(1), poisoned)
    assert cache.get(_hex(1)) is poisoned  # memory-only, verbatim
    assert cache.disk_errors == 1
    assert cache.disk_writes == 0
    # A circular payload raises ValueError from json; same degradation.
    circular: dict = {}
    circular["self"] = circular
    cache.put(_hex(2), circular)
    assert cache.get(_hex(2)) is circular
    assert cache.disk_errors == 2
