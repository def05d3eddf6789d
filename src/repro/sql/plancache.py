"""Shared prepared-plan cache.

Planning a statement is not free: parse, name resolution, optimization
(predicate ordering, index selection, UDF inlining — re-walking the
decompiler's templates every time).  Callers issuing the same statement
repeatedly — the common case for the paper's "millions of users" load
shape — should pay that once.  The cache maps

    SQL text -> (fingerprint, optimized LogicalPlan)

where the *fingerprint* is everything besides the text that decides what
``plan_select``/``optimize`` produce: the catalog's schema epoch, the
UDF registry's epoch, and the plan-affecting settings (parallelism,
inlining) — ``Database.execute`` builds it.  A lookup under another
fingerprint is a miss, and the store that follows overwrites the entry
(counted as an ``invalidation``).  Table/index DDL bumps the first
epoch and every UDF register/unregister the second, so a stale plan can
never hit: invalidation is structural, not advisory.

Only the plan is kept (no AST: a hit never needs it, and it would cost
more memory than the plan).  Cached logical plans are execution-state
free (expression closures, UDF executors, and physical operators are
built fresh per execution), so one entry may be *read* by any number of
concurrent statements.  Adaptive optimization re-plans per query by
design and bypasses this cache entirely (the caller's responsibility).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

DEFAULT_PLAN_CACHE_CAPACITY = 256


class PlanCache:
    """Bounded, thread-safe LRU of optimized plans, keyed by SQL text."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def lookup(self, sql: str, fingerprint: tuple):
        """The plan cached for ``sql`` under ``fingerprint``, or None."""
        with self._lock:
            entry = self._entries.get(sql)
            if entry is None or entry[0] != fingerprint:
                self.misses += 1
                return None
            self._entries.move_to_end(sql)
            self.hits += 1
            return entry[1]

    def store(self, sql: str, fingerprint: tuple, plan) -> None:
        with self._lock:
            stale = self._entries.get(sql)
            if stale is not None and stale[0] != fingerprint:
                self.invalidations += 1
            self._entries[sql] = (fingerprint, plan)
            self._entries.move_to_end(sql)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
