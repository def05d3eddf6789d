"""Shared prepared-statement cache, keyed by statement shape.

Preparing a statement is not free: parse, name resolution, optimization
(predicate ordering, index selection, UDF inlining).  Callers issuing
the same statement repeatedly, usually with other literals (the paper's
"millions of users" load shape), should pay that once per *shape*: the
token sequence with each INT/FLOAT/STRING literal replaced by a typed
slot (:func:`~repro.sql.lexer.shape`).  The cache maps

    shape -> (fingerprint, PreparedStatement)

where the *fingerprint* is everything besides the text that decides
what planning produces: the catalog's schema epoch, the UDF registry's
epoch, and the one plan-affecting setting, inlining (``parallelism``
only sizes isolated worker pools at run time, so it is not part of it);
``Database.execute`` builds it.  A lookup under another fingerprint is a
miss, and the store that follows overwrites the entry (counted as an
``invalidation``).  Table/index DDL bumps the first epoch and every UDF
register/unregister the second, so a stale plan can never hit:
invalidation is structural, not advisory.

A :class:`PreparedStatement` is the shape's template (the parsed
statement, slots for literals) and its plan: a SELECT's optimized
logical plan, or a write's :class:`~repro.sql.planner.WritePlan`, whose
scan is optimized as a SELECT's is and whose SET is already qualified.
An execution binds its literal values to the slots as its expressions
compile.  A plan that read a literal's value while it was built (folding
a pure UDF over literals, say) is not *generic*: it is also stored under
``(shape, values)`` and serves only those values, so a hit always reuses
the plan a cold parse of the same text would build.  Cached plans are
execution-state free (compiled expressions, UDF executors, and physical
operators are built per execution), so one entry may be read by any
number of concurrent statements.  Adaptive optimization re-plans per
query by design and bypasses this cache entirely (the caller's
responsibility).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

DEFAULT_PLAN_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class PreparedStatement:
    """One shape, parsed and planned once."""

    #: The template: the statement with a Slot for each literal.
    statement: object
    #: A SELECT's optimized LogicalPlan, or a write's WritePlan.
    plan: object
    #: False when the plan read its slots' values while it was built,
    #: so it serves only those values.
    generic: bool = True


class PlanCache:
    """Bounded, thread-safe LRU of prepared statements."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def lookup(self, key: Hashable, fingerprint: tuple) -> Optional[object]:
        """The entry cached for ``key`` under ``fingerprint``, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != fingerprint:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def store(self, key: Hashable, fingerprint: tuple, value) -> None:
        with self._lock:
            stale = self._entries.get(key)
            if stale is not None and stale[0] != fingerprint:
                self.invalidations += 1
            self._entries[key] = (fingerprint, value)
            self._entries.move_to_end(key)
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
