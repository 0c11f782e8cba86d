"""Shared cross-search evaluation cache.

FRaZ's entire cost model is the number of compressor evaluations
``e -> rho_r(D, e)`` (Fig. 6/7 count iterations, not seconds).  Before this
subsystem existed, memoisation lived only inside a single
:class:`~repro.pressio.closures.RatioFunction`, so overlapping regions
(Fig. 5), baseline comparisons, repeated time-steps and benchmark sweeps
all re-compressed identical ``(data, compressor, bound)`` triples.

:class:`EvalCache` is the process-wide answer:

* **Memory tier** — an LRU ``OrderedDict`` bounded by ``maxsize``,
  guarded by an ``RLock`` so thread-pool workers share it safely.
* **Disk tier** — optional; a JSON file under ``cache_dir`` loaded at
  construction and rewritten by :meth:`save`.  Keys are repr-stable (see
  :mod:`repro.cache.keys`), so a persisted entry hits again next process.
* **Statistics** — hit/miss/store counters plus the compress-seconds the
  hits avoided, surfaced all the way up into ``TrainingResult``.
* **Process-pool support** — the cache pickles by value (locks dropped,
  disk tier detached so workers never race on the file); workers return
  their *new* entries via :meth:`new_entries` and the parent folds them
  back with :meth:`merge_entries`, which is idempotent and last-write-wins
  deterministic because compressor evaluations are pure.
* **Batched probes** — :meth:`evaluate_many` partitions a probe list into
  hits and misses and fans only the misses through an executor.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cache.keys import config_hash, fingerprint_array, make_key
from repro.util.concurrency import guarded_by

if TYPE_CHECKING:  # import cycle: pressio.closures consults this package
    from repro.parallel.executor import BaseExecutor
    from repro.pressio.compressor import Compressor

__all__ = ["CacheEntry", "CacheStats", "EvalCache"]

_DISK_FILENAME = "evalcache.json"
_DISK_FORMAT = 1


@dataclass(frozen=True)
class CacheEntry:
    """One memoised compressor evaluation.

    ``seconds`` is the compress time *paid when the entry was created*;
    hits report it as time saved.  ``aux`` carries derived metrics that
    piggyback on the same probe (e.g. ``"quality:ssim"`` for
    quality-targeted searches) — absent keys simply mean that metric has
    not been computed for this bound yet.
    """

    ratio: float
    nbytes: int
    seconds: float
    aux: tuple[tuple[str, float], ...] = ()

    def aux_get(self, name: str) -> float | None:
        for k, v in self.aux:
            if k == name:
                return v
        return None

    def with_aux(self, name: str, value: float) -> "CacheEntry":
        kept = tuple((k, v) for k, v in self.aux if k != name)
        return CacheEntry(self.ratio, self.nbytes, self.seconds, kept + ((name, value),))


@dataclass
class CacheStats:
    """Counters for one cache instance (merged across process snapshots)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    seconds_saved: float = 0.0
    bytes_saved: int = 0
    disk_loads: int = 0

    def as_dict(self) -> dict:
        """The counters as declared (``seconds_saved`` rounded), then ``hit_rate``."""
        return {**asdict(self), "seconds_saved": round(self.seconds_saved, 6),
                "hit_rate": round(self.hit_rate, 6)}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _evaluate_probe(payload: tuple, on_compress=None) -> tuple[str, float, int, float]:
    """Module-level trampoline for pool executors: one cold probe.

    ``on_compress`` (in-process callers only) is handed the payload; what
    is returned, and so cached or shipped between processes, never holds it.
    """
    compressor, data, e, key = payload
    start = time.perf_counter()
    compressed = compressor.with_error_bound(e).compress(data)
    elapsed = time.perf_counter() - start
    if on_compress is not None:
        on_compress(compressed)
    return (key, compressed.ratio, compressed.nbytes, elapsed)


@guarded_by("_lock", "_entries", "_new", "stats", "_fp_cache")
class EvalCache:
    """Process-safe LRU cache of compressor evaluations, keyed by
    ``(data fingerprint, config hash, normalised bound)``.

    Parameters
    ----------
    maxsize:
        Memory-tier entry cap; least-recently-used entries are evicted.
        ``None`` means unbounded.
    cache_dir:
        Optional directory for the persistent tier.  Existing entries are
        loaded eagerly; call :meth:`save` (or use the cache as a context
        manager) to write back.
    """

    def __init__(self, maxsize: int | None = 4096, cache_dir: str | os.PathLike | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.cache_dir = (
            os.path.expanduser(os.fspath(cache_dir)) if cache_dir is not None else None
        )
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._new: dict[str, CacheEntry] = {}
        self._lock = threading.RLock()
        self._fp_cache: dict[int, tuple[weakref.ref, str]] = {}
        if self.cache_dir is not None:
            self._load_disk()

    # -- keying helpers ---------------------------------------------------
    def key_for(self, compressor: Compressor, data: np.ndarray, error_bound: float) -> str:
        return make_key(self.data_fingerprint(data), config_hash(compressor), error_bound)

    def data_fingerprint(self, data: np.ndarray) -> str:
        """Fingerprint with an identity-based memo.

        Searches probe the same array object dozens of times; hashing its
        buffer once per object keeps key construction off the hot path.  A
        weak reference pins identity, so ``id`` reuse after garbage
        collection can never alias two different arrays.
        """
        arr = np.asarray(data)
        with self._lock:
            memo = self._fp_cache.get(id(arr))
            if memo is not None and memo[0]() is arr:
                return memo[1]
        # Hash outside the lock: fingerprinting a large buffer is the
        # expensive part, and concurrent duplicate hashes are harmless.
        fp = fingerprint_array(arr)
        with self._lock:
            if len(self._fp_cache) > 256:
                self._fp_cache.clear()
            try:
                self._fp_cache[id(arr)] = (weakref.ref(arr), fp)
            except TypeError:  # repro: ignore[EXC002]
                pass  # some array subclasses refuse weakrefs; just skip the memo
        return fp

    # -- core get/put -----------------------------------------------------
    def get(self, key: str) -> CacheEntry | None:
        """Memory-tier lookup; refreshes LRU recency and counts hit/miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.seconds_saved += entry.seconds
            return entry

    def get_aux(self, key: str, name: str, data_nbytes: int = 0) -> CacheEntry | None:
        """Lookup that only counts as a hit if aux metric ``name`` is present.

        Quality searches need the *reconstruction-derived* metric, not just
        the ratio; an entry that knows the ratio but not the metric still
        forces a compress+decompress, so it is accounted as a miss.
        ``data_nbytes`` is the input size the hit avoided re-processing.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.aux_get(name) is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.seconds_saved += entry.seconds
            self.stats.bytes_saved += data_nbytes
            return entry

    def peek(self, key: str) -> CacheEntry | None:
        """Lookup without touching statistics or recency."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            known = self._entries.get(key)
            if known is not None:
                # Merge aux metrics rather than dropping either side.
                for name, value in entry.aux:
                    known = known.with_aux(name, value)
                entry = CacheEntry(entry.ratio, entry.nbytes, entry.seconds, known.aux)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._new[key] = entry
            self.stats.stores += 1
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self._new.pop(evicted_key, None)
                    self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_dict(self) -> dict:
        """Entry count + counters, snapshotted under the cache lock.

        The ``/stats`` endpoints use this instead of reading ``.stats``
        directly: the raw field is guarded by the cache lock, and a torn
        multi-field read would pair hit/miss counts from different
        moments.
        """
        with self._lock:
            return {"entries": len(self._entries), **self.stats.as_dict()}

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # -- evaluation front-door -------------------------------------------
    def evaluate(
        self, compressor: Compressor, data: np.ndarray, error_bound: float, *,
        on_compress=None,
    ) -> tuple[CacheEntry, bool]:
        """Return ``(entry, was_hit)`` for one probe, compressing on miss.

        On a miss ``on_compress`` receives the ``CompressedField`` the
        compressor produced; the entry keeps only its ratio and size.
        """
        key = self.key_for(compressor, data, error_bound)
        entry = self.get(key)
        if entry is not None:
            with self._lock:
                self.stats.bytes_saved += np.asarray(data).nbytes
            return entry, True
        _, ratio, nbytes, elapsed = _evaluate_probe(
            (compressor, np.asarray(data), float(error_bound), key), on_compress
        )
        entry = CacheEntry(ratio, nbytes, elapsed)
        self.put(key, entry)
        return entry, False

    def evaluate_many(
        self,
        compressor: Compressor,
        data: np.ndarray,
        error_bounds,
        executor: BaseExecutor | None = None,
    ) -> list[CacheEntry]:
        """Batched probe path: hits answered from cache, misses fanned out.

        Independent cache-miss probes go through ``executor.map_all``
        (serial when no executor is given), then land in the cache; the
        returned list is aligned with ``error_bounds``.  Duplicate bounds
        in one batch are compressed once.
        """
        arr = np.asarray(data)
        bounds = [float(e) for e in error_bounds]
        keys = [self.key_for(compressor, arr, e) for e in bounds]
        results: dict[str, CacheEntry] = {}
        cold: dict[str, float] = {}
        for e, key in zip(bounds, keys):
            if key in results or key in cold:
                continue
            entry = self.get(key)
            if entry is not None:
                with self._lock:
                    self.stats.bytes_saved += arr.nbytes
                results[key] = entry
            else:
                cold[key] = e
        if cold:
            payloads = [(compressor, arr, e, key) for key, e in cold.items()]
            if executor is None:
                probed = [_evaluate_probe(p) for p in payloads]
            else:
                probed = executor.map_all(_evaluate_probe, payloads)
            for key, ratio, nbytes, elapsed in probed:
                entry = CacheEntry(ratio, nbytes, elapsed)
                self.put(key, entry)
                results[key] = entry
        return [results[key] for key in keys]

    # -- process-pool snapshot/merge --------------------------------------
    def new_entries(self) -> dict[str, CacheEntry]:
        """Entries stored by *this instance* since construction/unpickling.

        This is what a process-pool worker ships back: small (only what it
        actually probed) and sufficient (the parent already has the rest).
        """
        with self._lock:
            return dict(self._new)

    def drain_new_entries(self) -> dict[str, CacheEntry]:
        """Like :meth:`new_entries`, but resets the "new" set afterwards.

        This is the delta-export primitive for *long-lived* pool workers:
        a resident worker process serves many jobs from one cache, so
        shipping ``new_entries()`` (everything since construction) would
        resend the same entries with every job.  Draining after each job
        keeps the per-job delta proportional to the probes that job
        actually paid for.  The entries themselves stay in the cache —
        only the bookkeeping of what is "new" is cleared.
        """
        with self._lock:
            delta = dict(self._new)
            self._new.clear()
            return delta

    def export_entries(self) -> dict[str, CacheEntry]:
        """Snapshot of every memory-tier entry (no stats/recency effects).

        This is what a scheduler ships *to* a resident pool worker so the
        worker starts each job with the parent's accumulated knowledge;
        the worker folds it in with :meth:`merge_entries` and returns only
        its :meth:`drain_new_entries` delta.  Bounded by ``maxsize``, and
        entries are tiny (three floats plus a digest key), so the snapshot
        stays cheap to pickle even for a full cache.
        """
        with self._lock:
            return dict(self._entries)

    def merge_entries(self, entries: dict[str, CacheEntry] | None) -> int:
        """Fold a worker's new entries in; returns how many were unseen.

        Deterministic regardless of worker completion order: evaluations
        are pure functions of the key, so colliding inserts carry equal
        payloads and last-write-wins cannot diverge.  Aux metrics merge
        per-name.  Idempotent for serial/thread executors, where workers
        share this very instance.
        """
        if not entries:
            return 0
        added = 0
        with self._lock:
            for key, entry in entries.items():
                existing = self._entries.get(key)
                if existing is entry:
                    continue  # shared-instance executor: already ours
                if existing is None:
                    added += 1
                self.put(key, entry)
        return added

    def __getstate__(self) -> dict:
        # Workers get the entries by value; the lock is rebuilt on arrival
        # and the disk tier is detached so only the parent touches files.
        with self._lock:
            return {
                "maxsize": self.maxsize,
                "entries": list(self._entries.items()),
            }

    def __setstate__(self, state: dict) -> None:
        self.maxsize = state["maxsize"]
        self.cache_dir = None
        self.stats = CacheStats()
        self._entries = OrderedDict(state["entries"])
        self._new = {}
        self._lock = threading.RLock()
        self._fp_cache = {}

    # -- persistence -------------------------------------------------------
    @property
    def disk_path(self) -> str | None:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, _DISK_FILENAME)

    def _load_disk(self) -> None:
        path = self.disk_path
        if path is None or not os.path.exists(path):
            return
        try:
            with open(path, encoding="utf-8") as fh:
                blob = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return  # a corrupt/unreadable tier is an empty tier, never an error
        if blob.get("format") != _DISK_FORMAT:
            return
        with self._lock:
            for key, rec in blob.get("entries", {}).items():
                entry = CacheEntry(
                    ratio=float(rec["ratio"]),
                    nbytes=int(rec["nbytes"]),
                    seconds=float(rec["seconds"]),
                    aux=tuple((str(k), float(v)) for k, v in rec.get("aux", [])),
                )
                self._entries[key] = entry
                self.stats.disk_loads += 1

    def save(self) -> str | None:
        """Write the memory tier to the disk tier; returns the path."""
        path = self.disk_path
        if path is None:
            return None
        os.makedirs(self.cache_dir, exist_ok=True)
        with self._lock:
            blob = {
                "format": _DISK_FORMAT,
                "entries": {
                    key: {
                        "ratio": entry.ratio,
                        "nbytes": entry.nbytes,
                        "seconds": round(entry.seconds, 6),
                        **({"aux": [[k, v] for k, v in entry.aux]} if entry.aux else {}),
                    }
                    for key, entry in self._entries.items()
                },
            }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        os.replace(tmp, path)
        return path

    def __enter__(self) -> "EvalCache":
        return self

    def __exit__(self, *exc) -> None:
        self.save()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"EvalCache(entries={len(self._entries)}, hits={self.stats.hits}, "
                f"misses={self.stats.misses}, dir={self.cache_dir!r})"
            )
