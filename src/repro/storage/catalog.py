"""System catalog: tables, columns, indexes, and registered UDFs.

The catalog is the authoritative map from names to storage locations
(heap-file first pages, index roots) and from UDF names to their
definitions (language, design, payload).  It is persisted as a JSON
sidecar next to the page file — the page file holds data, the catalog
holds the directory to it.  (PREDATOR kept this in Shore root objects;
JSON keeps the same information inspectable.)
"""

from __future__ import annotations

import base64
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import CatalogError
from .record import ColumnType


@dataclass
class Column:
    name: str
    col_type: ColumnType
    nullable: bool = True

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": self.col_type.value,
            "nullable": self.nullable,
        }

    @staticmethod
    def from_json(data: dict) -> "Column":
        return Column(
            name=data["name"],
            col_type=ColumnType(data["type"]),
            nullable=data.get("nullable", True),
        )


@dataclass
class IndexInfo:
    name: str
    column: str
    root_page: int

    def to_json(self) -> dict:
        return {"name": self.name, "column": self.column,
                "root_page": self.root_page}

    @staticmethod
    def from_json(data: dict) -> "IndexInfo":
        return IndexInfo(data["name"], data["column"], data["root_page"])


@dataclass
class TableInfo:
    name: str
    columns: List[Column]
    first_page: int
    indexes: List[IndexInfo] = field(default_factory=list)

    def column_index(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def column_types(self) -> List[ColumnType]:
        return [column.col_type for column in self.columns]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "columns": [c.to_json() for c in self.columns],
            "first_page": self.first_page,
            "indexes": [i.to_json() for i in self.indexes],
        }

    @staticmethod
    def from_json(data: dict) -> "TableInfo":
        return TableInfo(
            name=data["name"],
            columns=[Column.from_json(c) for c in data["columns"]],
            first_page=data["first_page"],
            indexes=[IndexInfo.from_json(i) for i in data.get("indexes", [])],
        )


@dataclass
class UDFInfo:
    """A registered UDF as the catalog sees it.

    ``payload`` is language-specific: JagScript source or classfile
    bytes for sandboxed UDFs; a ``module:function`` dotted path for
    native ones (native UDF code lives in the server's own import path,
    exactly like a C++ UDF compiled into PREDATOR).
    """

    name: str
    language: str          # "native" | "jaguar"
    design: str            # repro.core.designs.Design value
    entry: str             # function name within the payload
    payload: bytes
    param_types: List[str]
    ret_type: str
    callbacks: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "language": self.language,
            "design": self.design,
            "entry": self.entry,
            "payload": base64.b64encode(self.payload).decode("ascii"),
            "param_types": self.param_types,
            "ret_type": self.ret_type,
            "callbacks": self.callbacks,
        }

    @staticmethod
    def from_json(data: dict) -> "UDFInfo":
        return UDFInfo(
            name=data["name"],
            language=data["language"],
            design=data["design"],
            entry=data["entry"],
            payload=base64.b64decode(data["payload"]),
            param_types=list(data["param_types"]),
            ret_type=data["ret_type"],
            callbacks=list(data.get("callbacks", [])),
        )


class Catalog:
    """In-memory catalog with explicit save/load.

    With ``deferred=True`` (set by a WAL-backed database) the eager
    ``save()`` calls sprinkled through DDL paths stop writing the
    sidecar file directly — each becomes a notification (``on_change``)
    so the current statement is marked catalog-dirty; the statement's
    commit then logs the full serialized catalog in the WAL, and the
    sidecar file itself is rewritten only at checkpoints
    (``save(force=True)``).  Crash recovery restores it from the last
    committed CATALOG record, so an in-place sidecar write can never
    expose uncommitted DDL.
    """

    def __init__(self, path: Optional[str] = None, deferred: bool = False,
                 on_change=None):
        self.path = path
        self.deferred = deferred
        self.on_change = on_change
        self.tables: Dict[str, TableInfo] = {}
        self.udfs: Dict[str, UDFInfo] = {}
        self._lock = threading.RLock()
        #: Schema epoch: bumped on every table and index DDL (UDF
        #: changes bump ``UDFRegistry.epoch``).  Plan-cache entries are
        #: validated against both, so any statement planned against an
        #: older schema misses instead of serving stale
        #: table/index/UDF resolutions.
        self.epoch = 0
        if path is not None and os.path.exists(path):
            self._load()

    def bump_epoch(self) -> None:
        with self._lock:
            self.epoch += 1

    # -- tables ------------------------------------------------------------

    def add_table(self, table: TableInfo) -> None:
        with self._lock:
            key = table.name.lower()
            if key in self.tables:
                raise CatalogError(f"table {table.name!r} already exists")
            self.tables[key] = table
            self.epoch += 1
            self.save()

    def get_table(self, name: str) -> TableInfo:
        with self._lock:
            try:
                return self.tables[name.lower()]
            except KeyError:
                raise CatalogError(f"unknown table {name!r}") from None

    def drop_table(self, name: str) -> TableInfo:
        with self._lock:
            try:
                table = self.tables.pop(name.lower())
            except KeyError:
                raise CatalogError(f"unknown table {name!r}") from None
            self.epoch += 1
            self.save()
            return table

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self.tables

    # -- UDFs ------------------------------------------------------------------

    def add_udf(self, udf: UDFInfo) -> None:
        with self._lock:
            key = udf.name.lower()
            if key in self.udfs:
                raise CatalogError(f"function {udf.name!r} already exists")
            self.udfs[key] = udf
            self.save()

    def get_udf(self, name: str) -> UDFInfo:
        with self._lock:
            try:
                return self.udfs[name.lower()]
            except KeyError:
                raise CatalogError(f"unknown function {name!r}") from None

    def drop_udf(self, name: str) -> None:
        with self._lock:
            if self.udfs.pop(name.lower(), None) is None:
                raise CatalogError(f"unknown function {name!r}")
            self.save()

    def has_udf(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self.udfs

    # -- persistence ---------------------------------------------------------------

    def serialize(self) -> bytes:
        """The catalog's persistent form, for WAL CATALOG records."""
        with self._lock:
            blob = {
                "tables": [t.to_json() for t in self.tables.values()],
                "udfs": [u.to_json() for u in self.udfs.values()],
            }
            return json.dumps(blob, indent=1).encode("utf-8")

    def save(self, force: bool = False) -> None:
        if self.path is None:
            return
        if self.deferred and not force:
            if self.on_change is not None:
                self.on_change()
            return
        with self._lock:
            data = self.serialize()
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, self.path)

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            blob = json.load(handle)
        for table_json in blob.get("tables", []):
            table = TableInfo.from_json(table_json)
            self.tables[table.name.lower()] = table
        for udf_json in blob.get("udfs", []):
            udf = UDFInfo.from_json(udf_json)
            self.udfs[udf.name.lower()] = udf
