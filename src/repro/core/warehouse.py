"""The data warehouse — SPHINX's relational state store.

"The SPHINX server adopts database infrastructure to manage scheduling
procedure.  Database tables support inter-process communication among
scheduling modules ... It also supports fault tolerance by making the
system easily recoverable from internal component failures" (§3.1).

:class:`Warehouse` is an in-memory relational store with:

* named :class:`Table` objects (declared columns, primary key),
* insert / update / delete / query with equality predicates,
* **snapshot & restore** — the recovery mechanism: every write is
  durable when made, so a crash leaves the snapshot taken at the crash
  instant, and a new server restores it (:mod:`repro.core.recovery`).

Rows are plain dicts of scalars; snapshots deep-copy, so a restored
warehouse shares nothing with the crashed one.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

__all__ = ["Warehouse", "Table", "WarehouseError"]


class WarehouseError(RuntimeError):
    """Schema violations, duplicate keys, missing rows."""


class _Bucket(dict):
    """One equality-index bucket: an ordered set of primary keys.

    A dict subclass so every existing consumer (membership, ``pop``,
    iteration) keeps working, plus the two fields that make selects
    O(k) with zero sorts in the common case:

    * ``tail`` — the highest insertion sequence number ever appended
      while the bucket was in order;
    * ``dirty`` — True once an append broke insertion order (a row
      *updated into* this bucket carries its original — possibly
      older — sequence number).  Inserts always append the newest
      sequence number and can never dirty a bucket; updates are what
      break it.  A dirty bucket is re-sorted lazily, once, on the next
      ordered read.
    """

    __slots__ = ("tail", "dirty")

    def __init__(self) -> None:
        super().__init__()
        self.tail = 0
        self.dirty = False

    def append(self, pk: Any, seq: int) -> None:
        """Add ``pk`` (sequence ``seq``), tracking order violations."""
        self[pk] = None
        if seq >= self.tail:
            self.tail = seq
        else:
            self.dirty = True


class Table:
    """One relational table with a declared schema and primary key.

    Equality indexes (:meth:`ensure_index`) turn ``select(where=...)``
    on the indexed column from a full scan into a bucket lookup; the
    control loop queries ``dags``/``jobs`` by state every tick, so the
    server indexes those columns.  Indexed or not, results come back in
    table insertion order (the determinism contract).  Buckets are kept
    in insertion order under mutation (see :class:`_Bucket`), so hot
    selects iterate the bucket directly; only a bucket that an update
    genuinely disordered pays a sort, once, on its next read.
    """

    def __init__(self, name: str, columns: Iterable[str], key: str):
        self.name = name
        self.columns = tuple(columns)
        if key not in self.columns:
            raise WarehouseError(f"key {key!r} not among columns of {name!r}")
        self.key = key
        self._rows: dict[Any, dict[str, Any]] = {}
        #: column -> value -> ordered pk set (see :class:`_Bucket`).
        self._indexes: dict[str, dict[Any, _Bucket]] = {}
        #: pk -> insertion sequence number; orders re-sorts of dirty
        #: buckets (and is the order inserts append in).
        self._row_seq: dict[Any, int] = {}
        self._seq = 0

    # -- indexes --------------------------------------------------------------
    def ensure_index(self, column: str) -> None:
        """Maintain an equality index on ``column`` (idempotent)."""
        if column not in self.columns:
            raise WarehouseError(
                f"{self.name}: cannot index unknown column {column!r}"
            )
        if column in self._indexes:
            return
        idx: dict[Any, _Bucket] = {}
        row_seq = self._row_seq
        for pk, row in self._rows.items():
            bucket = idx.get(row[column])
            if bucket is None:
                bucket = idx[row[column]] = _Bucket()
            # _rows iterates in insertion order, so these appends are
            # monotonic and every fresh bucket starts clean.
            bucket.append(pk, row_seq[pk])
        self._indexes[column] = idx

    def _ordered_bucket(self, idx: dict[Any, _Bucket],
                        value: Any) -> Optional[_Bucket]:
        """The bucket for ``value``, re-sorted into insertion order if
        an update disordered it (the only time a sort happens)."""
        bucket = idx.get(value)
        if bucket is not None and bucket.dirty:
            row_seq = self._row_seq
            pks = sorted(bucket, key=row_seq.__getitem__)
            bucket.clear()
            for pk in pks:
                bucket[pk] = None
            bucket.tail = row_seq[pks[-1]] if pks else 0
            bucket.dirty = False
        return bucket

    # -- mutation -------------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> None:
        extra = set(row) - set(self.columns)
        if extra:
            raise WarehouseError(f"{self.name}: unknown columns {sorted(extra)}")
        missing = set(self.columns) - set(row)
        if missing:
            raise WarehouseError(f"{self.name}: missing columns {sorted(missing)}")
        k = row[self.key]
        if k in self._rows:
            raise WarehouseError(f"{self.name}: duplicate key {k!r}")
        self._rows[k] = stored = dict(row)
        self._seq += 1
        seq = self._row_seq[k] = self._seq
        for col, idx in self._indexes.items():
            val = stored[col]
            bucket = idx.get(val)
            if bucket is None:
                bucket = idx[val] = _Bucket()
            # seq is the global maximum: an insert never dirties.
            bucket.append(k, seq)

    def update(self, key: Any, **changes: Any) -> dict[str, Any]:
        row = self._rows.get(key)
        if row is None:
            raise WarehouseError(f"{self.name}: no row with key {key!r}")
        extra = set(changes) - set(self.columns)
        if extra:
            raise WarehouseError(f"{self.name}: unknown columns {sorted(extra)}")
        if self.key in changes and changes[self.key] != key:
            raise WarehouseError(f"{self.name}: cannot change the primary key")
        for col, idx in self._indexes.items():
            if col in changes:
                old, new = row[col], changes[col]
                if new != old:
                    bucket = idx.get(old)
                    if bucket is not None:
                        bucket.pop(key, None)
                    new_bucket = idx.get(new)
                    if new_bucket is None:
                        new_bucket = idx[new] = _Bucket()
                    # The row keeps its original insertion seq, which
                    # may be older than the bucket's tail — the one way
                    # a bucket goes dirty.
                    new_bucket.append(key, self._row_seq[key])
        row.update(changes)
        return dict(row)

    def upsert(self, row: Mapping[str, Any]) -> None:
        k = row[self.key]
        if k in self._rows:
            self.update(k, **{c: v for c, v in row.items() if c != self.key})
        else:
            self.insert(row)

    def delete(self, key: Any) -> bool:
        row = self._rows.pop(key, None)
        if row is None:
            return False
        self._row_seq.pop(key, None)
        for col, idx in self._indexes.items():
            bucket = idx.get(row[col])
            if bucket is not None:
                bucket.pop(key, None)
        return True

    # -- queries ------------------------------------------------------------------
    def get(self, key: Any, copy: bool = True) -> Optional[dict[str, Any]]:
        """The row with ``key``, or None.

        ``copy=False`` returns the live row dict — read-only use only
        (the warehouse's own hot paths); mutating it bypasses index
        maintenance.
        """
        row = self._rows.get(key)
        if row is None:
            return None
        return dict(row) if copy else row

    def select(
        self,
        where: Optional[Mapping[str, Any]] = None,
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
        copy: bool = True,
    ) -> list[dict[str, Any]]:
        """Rows matching all equality conditions and the predicate,
        in insertion order (deterministic).

        When a ``where`` column is indexed the scan is driven off the
        index bucket instead of the whole table.  Buckets stay in
        insertion order under mutation, so the common select is O(k)
        in the bucket size with zero sorts; only a bucket an update
        disordered is sorted, once, here.  ``copy=False`` returns live
        row dicts (read-only use only).
        """
        rows_src = None
        if where:
            for col, val in where.items():
                idx = self._indexes.get(col)
                if idx is None:
                    continue
                bucket = self._ordered_bucket(idx, val)
                if not bucket:
                    return []
                rows = self._rows
                rows_src = [rows[pk] for pk in bucket]
                if len(where) == 1:
                    where = None
                else:
                    where = {c: v for c, v in where.items() if c != col}
                break
        if rows_src is None:
            rows_src = self._rows.values()
        out = []
        for row in rows_src:
            if where and any(row.get(c) != v for c, v in where.items()):
                continue
            if predicate and not predicate(row):
                continue
            out.append(dict(row) if copy else row)
        return out

    def count(self, where: Optional[Mapping[str, Any]] = None) -> int:
        """Matching-row count.

        Fast paths: no conditions is the table length; a single
        condition on an indexed column is the bucket length — neither
        materializes a row list (order is irrelevant to a count, so a
        dirty bucket needs no sort either).
        """
        if not where:
            return len(self._rows)
        if len(where) == 1:
            ((col, val),) = where.items()
            idx = self._indexes.get(col)
            if idx is not None:
                bucket = idx.get(val)
                return len(bucket) if bucket is not None else 0
        return len(self.select(where, copy=False))

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Any) -> bool:
        return key in self._rows

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return (dict(r) for r in self._rows.values())


class Warehouse:
    """A named collection of tables with snapshot/restore."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str, columns: Iterable[str], key: str) -> Table:
        if name in self._tables:
            raise WarehouseError(f"table {name!r} already exists")
        table = Table(name, columns, key)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        t = self._tables.get(name)
        if t is None:
            raise WarehouseError(f"no table {name!r}")
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    # -- recovery -----------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A deep, self-contained checkpoint of every table."""
        return {
            "tables": {
                name: {
                    "columns": t.columns,
                    "key": t.key,
                    "rows": copy.deepcopy(list(t._rows.values())),
                }
                for name, t in self._tables.items()
            }
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace all contents with a snapshot's (crash recovery)."""
        tables = snapshot.get("tables")
        if tables is None:
            raise WarehouseError("malformed snapshot: no 'tables' entry")
        self._tables = {}
        for name, spec in tables.items():
            t = self.create_table(name, spec["columns"], spec["key"])
            for row in copy.deepcopy(spec["rows"]):
                t.insert(row)
