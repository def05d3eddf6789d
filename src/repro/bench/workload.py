"""Benchmark workload: the paper's relations and UDFs (Section 5.1).

"In all our experiments, we used three relations of cardinality 10,000.
Each relation has an attribute of type ByteArray ... Relations Rel1,
Rel100, and Rel10000 have byte arrays of size 1, 100, 10000 bytes
respectively in each tuple."

Scaling: 10,000 C++ invocations on a 1998 Sparc20 translate to a *far*
larger absolute workload on a modern machine running Python; the default
cardinality here is 2,000 and every experiment takes the invocation
count as a parameter.  EXPERIMENTS.md records exactly what ran.

Storage choice: the paper passes the ByteArray *by value* into the UDF
(callbacks transfer no data), so the workload keeps byte arrays inline
in the record (page size 16 KiB, LOB threshold above 10,000) — the scan
cost of touching them is then part of the *base* query cost that
calibration subtracts, exactly as in Figure 4.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.designs import Design
from ..core.generic_udf import generic_definition, noop_definition
from ..database import Database

DEFAULT_CARDINALITY = 2000
DEFAULT_SIZES = (1, 100, 10000)

#: The three designs of the paper's performance study, by their labels.
PAPER_DESIGNS = (
    Design.NATIVE_INTEGRATED,   # "C++"
    Design.NATIVE_ISOLATED,     # "IC++"
    Design.SANDBOX_JIT,         # "JNI"
)


def pattern_bytes(size: int, seed: int) -> bytes:
    """Deterministic per-row byte arrays (sum is stable for asserts)."""
    out = bytearray(size)
    state = (seed * 2654435761 + 97) & 0xFFFFFFFF
    for index in range(size):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out[index] = (state >> 16) & 0xFF
    return bytes(out)


class BenchmarkWorkload:
    """Owns a database populated with Rel* tables and all UDF designs."""

    def __init__(
        self,
        cardinality: int = DEFAULT_CARDINALITY,
        sizes: Sequence[int] = DEFAULT_SIZES,
        path: Optional[str] = None,
    ):
        self.cardinality = cardinality
        self.sizes = tuple(sizes)
        # 16 KiB pages keep even the 10,000-byte arrays inline (see
        # module docstring); the buffer pool is sized to hold the
        # largest relation so repeated sweeps measure CPU, not I/O.
        self.db = Database(
            path=path,
            page_size=16384,
            buffer_capacity=4096,
            lob_threshold=12000,
        )
        self._populate()
        self._register_udfs()

    # -- setup -------------------------------------------------------------

    def table_name(self, size: int) -> str:
        return f"rel{size}"

    def _populate(self) -> None:
        for size in self.sizes:
            name = self.table_name(size)
            self.db.execute(
                f"CREATE TABLE {name} (id INT, arr BYTEARRAY)"
            )
            self.db.insert_rows(
                name,
                (
                    (row_id, pattern_bytes(size, row_id))
                    for row_id in range(self.cardinality)
                ),
            )

    def _register_udfs(self) -> None:
        self.noop_names: Dict[Design, str] = {}
        self.generic_names: Dict[Design, str] = {}
        for design in Design:
            noop = noop_definition(design)
            self.db.register_udf(noop, persist=False)
            self.noop_names[design] = noop.name
            generic = generic_definition(design)
            self.db.register_udf(generic, persist=False)
            self.generic_names[design] = generic.name

    # -- queries (Section 5.1's benchmark query template) ----------------------

    def udf_query(
        self,
        size: int,
        udf_name: str,
        invocations: int,
        num_indep: int = 0,
        num_dep: int = 0,
        num_callbacks: int = 0,
    ) -> str:
        """``SELECT UDF(R.ByteArray, ...) FROM Rel* R WHERE <condition>``.

        The WHERE clause is the paper's "restrictive (and inexpensive)
        predicate" controlling how many tuples reach the UDF.
        """
        table = self.table_name(size)
        return (
            f"SELECT {udf_name}(r.arr, {num_indep}, {num_dep}, "
            f"{num_callbacks}) FROM {table} r WHERE r.id < {invocations}"
        )

    def base_query(self, size: int, invocations: int) -> str:
        """Same scan and qualification, no UDF: the Figure 4 baseline."""
        table = self.table_name(size)
        return f"SELECT r.id FROM {table} r WHERE r.id < {invocations}"

    def expected_generic_result(
        self, row_id: int, size: int, num_indep: int, num_dep: int,
        num_callbacks: int,
    ) -> int:
        """Ground truth for correctness checks inside benchmarks."""
        return num_indep + num_dep * sum(pattern_bytes(size, row_id))

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "BenchmarkWorkload":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
