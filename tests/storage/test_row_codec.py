"""One compiled row codec per table schema.

A seeded differential sweep holds :class:`RecordCodec` to a reference
per-field decoder kept here (the decoder ``record.py`` had before the
codec), on random schemas and records decoded in place inside larger
buffers; malformed extents always raise ``RecordError``.  Then, in the
style of ``tests/core/test_load_once.py``, every statement that reads
rows runs with codec construction forbidden after CREATE TABLE, and a
SELECT runs with ``RID`` forbidden.
"""

import random
import struct
from array import array

import pytest

import repro.storage.heapfile as heapfile
import repro.storage.record as record
from repro.database import Database
from repro.errors import RecordError
from repro.storage.lob import LOBRef
from repro.storage.record import (
    ColumnType,
    RecordCodec,
    deserialize_record,
    serialize_record,
)

ALL_TYPES = list(ColumnType)

# -- the reference decoder ---------------------------------------------------


def _need(data, pos, n):
    if pos + n > len(data):
        raise RecordError("truncated record body")


def reference_decode(data, types):
    """One enum dispatch and one unpack per field, over a record of its
    own (the decoder the codec replaced)."""
    bitmap_size = (len(types) + 7) // 8
    if len(data) < bitmap_size:
        raise RecordError("record shorter than its null bitmap")
    pos = bitmap_size
    values = []
    for index, col_type in enumerate(types):
        if data[index // 8] & (1 << (index % 8)):
            values.append(None)
            continue
        if col_type in (ColumnType.INT, ColumnType.FLOAT):
            _need(data, pos, 8)
            fmt = "<q" if col_type is ColumnType.INT else "<d"
            values.append(struct.unpack_from(fmt, data, pos)[0])
            pos += 8
            continue
        if col_type is ColumnType.BOOL:
            _need(data, pos, 1)
            values.append(data[pos] != 0)
            pos += 1
            continue
        _need(data, pos, 4)
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if col_type is ColumnType.BYTES and n == 0xFFFFFFFF:
            _need(data, pos, 12)
            values.append(LOBRef(*struct.unpack_from("<IQ", data, pos)))
            pos += 12
            continue
        size = 8 * n if col_type is ColumnType.FLOATARR else n
        _need(data, pos, size)
        raw = bytes(data[pos:pos + size])
        pos += size
        if col_type is ColumnType.STRING:
            values.append(raw.decode("utf-8"))
        elif col_type is ColumnType.BYTES:
            values.append(raw)
        else:
            values.append(array("d", raw))
    if pos != len(data):
        raise RecordError("trailing bytes after record body")
    return values


# -- the differential sweep ------------------------------------------------------

STRINGS = ["", "a", "héllo", "日本語", "🙂 ok", "x" * 40]


def random_value(rng, col_type):
    if col_type is ColumnType.INT:
        return rng.choice([0, -(2 ** 63), 2 ** 63 - 1,
                           rng.randrange(-(2 ** 63), 2 ** 63)])
    if col_type is ColumnType.FLOAT:
        return rng.choice([0.0, -0.0, float("inf"), rng.uniform(-1e9, 1e9)])
    if col_type is ColumnType.BOOL:
        return rng.random() < 0.5
    if col_type is ColumnType.STRING:
        return rng.choice(STRINGS)
    if col_type is ColumnType.BYTES:
        choice = rng.randrange(4)
        if choice == 0:
            return b""
        if choice == 1:
            return LOBRef(rng.randrange(2 ** 32 - 1), rng.randrange(2 ** 40))
        return rng.randbytes(rng.randrange(1, 30))
    return array("d", [rng.uniform(-5, 5) for __ in range(rng.randrange(5))])


def random_cases(seed, count):
    rng = random.Random(seed)
    for __ in range(count):
        types = [rng.choice(ALL_TYPES) for __ in range(rng.randint(1, 20))]
        null_share = rng.choice([0.0, 0.0, 0.3, 1.0])
        values = [
            None if rng.random() < null_share else random_value(rng, t)
            for t in types
        ]
        data = serialize_record(values, types)
        page = bytearray(rng.randbytes(rng.randrange(40)))
        start = len(page)
        page += data + rng.randbytes(rng.randint(1, 40))
        yield types, values, data, page, start


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_codec_matches_reference_decoder(seed):
    for types, values, data, page, start in random_cases(seed, 150):
        codec = RecordCodec(types)
        expected = reference_decode(data, types)
        assert expected == values
        assert codec.decode(page, start, start + len(data)) == expected
        assert deserialize_record(data, types) == expected


@pytest.mark.parametrize("seed", [5, 41])
def test_every_truncation_and_a_trailing_byte_raise(seed):
    for types, __, data, page, start in random_cases(seed, 60):
        codec = RecordCodec(types)
        # The page goes on past every cut, so only the explicit offset
        # checks can notice it.
        for cut in range(len(data)):
            with pytest.raises(RecordError):
                codec.decode(page, start, start + cut)
        with pytest.raises(RecordError):
            codec.decode(page, start, start + len(data) + 1)


def test_record_past_its_buffer_raises():
    types = [ColumnType.INT]
    data = serialize_record([7], types)
    with pytest.raises(RecordError):
        RecordCodec(types).decode(bytearray(data), 0, len(data) + 1)


# -- codecs are built with the catalog entry, never per statement ------------------


def forbid_codec_builds(monkeypatch):
    """From here on, building a record codec is a failure."""

    def refuse(*args, **kwargs):
        raise AssertionError("record codec built at query time")

    monkeypatch.setattr(RecordCodec, "__init__", refuse)
    monkeypatch.setattr(record, "_codec_for", refuse)


def fill(db):
    db.execute("CREATE TABLE t (id INT, name VARCHAR, body BYTEARRAY)")
    db.execute("CREATE TABLE u (id INT, w INT)")
    for i in range(40):
        body = "zerobytes(2000)" if i % 10 == 0 else f"zerobytes({i})"
        db.execute(f"INSERT INTO t VALUES ({i}, 'n{i}', {body})")
        db.execute(f"INSERT INTO u VALUES ({i}, {i % 3})")
    db.execute("CREATE INDEX t_id ON t (id)")


READS = {
    "SELECT count(*), sum(id) FROM t": [(40, 780)],
    "SELECT name FROM t WHERE id = 12": [("n12",)],
    "SELECT id FROM t WHERE id >= 5 AND id < 8": [(5,), (6,), (7,)],
    "SELECT t.name FROM t JOIN u ON t.id = u.id WHERE u.w = 2 AND t.id < 9":
        [("n2",), ("n5",), ("n8",)],
}


def check_reads(db):
    for sql, expected in READS.items():
        assert sorted(db.query(sql)) == expected, sql


class TestBuiltOnce:
    def test_selects_live_and_under_a_snapshot(self, monkeypatch):
        db = Database(page_size=1024)
        fill(db)
        forbid_codec_builds(monkeypatch)
        check_reads(db)
        db.snapshots.enable(db)
        check_reads(db)
        db.close()

    def test_writes_and_ddl(self, monkeypatch):
        db = Database(page_size=1024)
        fill(db)
        forbid_codec_builds(monkeypatch)
        db.execute("UPDATE t SET name = 'x' WHERE id < 20")
        db.execute("DELETE FROM t WHERE id >= 30")
        db.execute("CREATE INDEX u_id ON u (id)")
        assert db.query("SELECT count(*) FROM t WHERE name = 'x'") == [(20,)]
        assert db.query("SELECT w FROM u WHERE id = 4") == [(1,)]
        freed = []
        free = db.lobs.free
        monkeypatch.setattr(
            db.lobs, "free", lambda ref: (freed.append(ref), free(ref))
        )
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")
        assert len(freed) == 3  # ids 0, 10, 20 spilled; 30 was deleted
        db.close()

    def test_reopen_builds_one_codec_per_table_at_load(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "db")
        db = Database(path, page_size=1024)
        fill(db)
        db.close()
        built = []
        original = RecordCodec.__init__

        def counting(self, types):
            built.append(tuple(types))
            original(self, types)

        monkeypatch.setattr(RecordCodec, "__init__", counting)
        db = Database(path, page_size=1024)
        assert len(built) == 2
        forbid_codec_builds(monkeypatch)
        check_reads(db)
        db.close()


def test_select_builds_no_rid(monkeypatch):
    db = Database(page_size=512)
    db.execute("CREATE TABLE t (id INT, pad VARCHAR)")
    db.insert_rows("t", [(i, "p" * 60) for i in range(200)])
    table = db.catalog.get_table("t")
    assert sum(1 for __ in table.heap.pages()) > 10

    def refuse(*args, **kwargs):
        raise AssertionError("RID built on the SELECT path")

    monkeypatch.setattr(heapfile, "RID", refuse)
    assert db.query("SELECT count(*), sum(id) FROM t WHERE id % 2 = 0") == [
        (100, 9900)
    ]
    db.close()
