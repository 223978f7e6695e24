"""The content-addressed artifact cache.

A two-layer store keyed by ``(kind, key)`` where ``key`` is a content
hash (a protocol fingerprint or a job key): an in-memory LRU for the hot
set, backed by a pickle-per-artifact directory tree that is shared
across processes (the serve pool's workers attach to the same root and
load what the submitting process published).  Layout::

    <root>/<kind>/<key[:2]>/<key>.pkl

Writes are atomic (temp file + ``os.replace``), so concurrent readers
never observe a torn artifact; corrupt or unreadable files are treated
as misses and removed.  The disk layer is size-capped by
``disk_bytes``: when an insertion pushes the tree over the cap, the
oldest artifacts (by mtime) are evicted until it fits.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.engine.fast import LRU

#: Default number of artifacts held in the in-memory LRU layer.
DEFAULT_MEMORY_ITEMS = 128


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ArtifactCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both layers."""
        return self.memory_hits + self.disk_hits


def _safe_component(name: str) -> str:
    """Validate a path component (kind or key) against traversal."""
    if not name or any(ch in name for ch in "/\\") or name.startswith("."):
        raise ValueError(f"invalid cache path component: {name!r}")
    return name


class ArtifactCache:
    """Disk-backed, memory-fronted content-addressed artifact store.

    Parameters
    ----------
    root:
        Directory of the disk layer (created if missing).  Multiple
        cache instances - in the same process or across worker
        processes - may share one root; the disk layer is their shared
        medium.
    memory_items:
        Capacity of the per-instance in-memory LRU (number of
        artifacts, all kinds pooled).
    disk_bytes:
        Byte cap on the disk tree, enforced after each write by
        evicting the oldest artifacts; ``None`` means unbounded.

    All methods are thread-safe.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        memory_items: int = DEFAULT_MEMORY_ITEMS,
        disk_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.memory_items = max(1, memory_items)
        self.disk_bytes = disk_bytes
        self.stats = CacheStats()
        self._mem: LRU[tuple[str, str], object] = LRU(self.memory_items)
        self._lock = threading.Lock()
        self._tmp_counter = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        shard = key[:2] if len(key) > 2 else "xx"
        return (
            self.root
            / _safe_component(kind)
            / _safe_component(shard)
            / f"{_safe_component(key)}.pkl"
        )

    # ------------------------------------------------------------------
    # Store / fetch
    # ------------------------------------------------------------------

    def get(self, kind: str, key: str) -> object | None:
        """Fetch the artifact at ``(kind, key)``, or ``None`` on a miss.

        Memory hits refresh LRU recency; disk hits are promoted into
        the memory layer.  A corrupt disk artifact counts as a miss and
        is deleted.
        """
        mem_key = (kind, key)
        with self._lock:
            if mem_key in self._mem:
                self.stats.memory_hits += 1
                return self._mem.get(mem_key)
        path = self._path(kind, key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except Exception:
            # Torn write from a crashed process, unpicklable content,
            # version skew: treat as a miss and drop the bad file.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.disk_hits += 1
            self._mem[mem_key] = value
            self.stats.memory_evictions = self._mem.evictions
        return value

    def put(self, kind: str, key: str, value: object) -> None:
        """Store ``value`` at ``(kind, key)`` in both layers."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._tmp_counter += 1
            tmp = path.parent / f".{os.getpid()}.{self._tmp_counter}.tmp"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        with self._lock:
            self._mem[(kind, key)] = value
            self.stats.memory_evictions = self._mem.evictions
        self._enforce_disk_budget()

    def contains(self, kind: str, key: str) -> bool:
        """Whether ``(kind, key)`` is present in either layer."""
        with self._lock:
            if (kind, key) in self._mem:
                return True
        return self._path(kind, key).exists()

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _enforce_disk_budget(self) -> None:
        """Evict oldest disk artifacts until the tree fits the cap."""
        if self.disk_bytes is None:
            return
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self.root.rglob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:  # racing eviction from another process
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.disk_bytes:
            return
        entries.sort()
        for _, size, path in entries:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                continue
            with self._lock:
                self.stats.disk_evictions += 1
            total -= size
            if total <= self.disk_bytes:
                break
