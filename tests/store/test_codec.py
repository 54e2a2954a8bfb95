"""The tagged binary codec behind WAL frames and checkpoint images.

What the durable plane leans on: every value comes back with the type
it went in with (``"7"`` is not ``7``, ``True`` is not ``1``), equal
values encode to equal bytes, a packed column is only ever a cheaper
spelling of a plain list, damage anywhere in a log is seen, and the
bytes on disk cannot drift without a test noticing.
"""

import hashlib
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LHRSConfig, LHRSFile
from repro.store import codec, decode_blob, decode_frames, encode_frame

INTS = st.one_of(
    st.integers(-300, 300),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**80), 2**80),  # beyond a 64-bit word
)
LEAVES = st.one_of(
    st.none(), st.booleans(), INTS, st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=8),
)
KEYS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(max_size=4),
    st.from_regex(r"-?[0-9]{1,3}", fullmatch=True),  # digit strings stay str
)
#: long same-type lists: the shapes a packed column is chosen for
COLUMNS = st.one_of(
    st.lists(INTS, min_size=codec.PACK_MIN, max_size=24),
    st.lists(st.integers(-100, 100), min_size=codec.PACK_MIN, max_size=24),
    st.lists(st.binary(max_size=6), min_size=codec.PACK_MIN, max_size=24),
    st.lists(st.booleans(), min_size=codec.PACK_MIN, max_size=12),
)
VALUES = st.recursive(
    st.one_of(LEAVES, COLUMNS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=10),
        st.dictionaries(KEYS, inner, max_size=6),
    ),
    max_leaves=24,
)


def typed(value):
    """``value`` with every type spelled out, so that ``True == 1`` and
    ``[1] == (1,)`` cannot hide a difference."""
    if isinstance(value, (list, tuple)):
        return ["list", [typed(item) for item in value]]
    if isinstance(value, dict):
        return ["dict", [(typed(k), typed(v)) for k, v in value.items()]]
    return [type(value).__name__, value]


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(value=VALUES)
    def test_every_value_comes_back_with_its_types(self, value):
        back = codec.decode(codec.encode(value))
        assert back == value
        # dict order is the canonical one, so compare order-free
        assert typed(_sorted(back)) == typed(_sorted(value))

    def test_the_two_defects_of_the_json_body_are_gone(self):
        value = {"7": "digit string key", 7: "int key", "b": {"__b__": "x"}}
        back = codec.decode(codec.encode(value))
        assert typed(_sorted(back)) == typed(_sorted(value))
        assert back["b"] == {"__b__": "x"} and "7" in back and 7 in back

    @pytest.mark.parametrize("value", [
        0, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**200, -(2**200),
        b"", "", [], {}, [b""] * 9, 0.0, -0.0, float("inf"), [[]] * 9,
    ])
    def test_edges(self, value):
        assert typed(codec.decode(codec.encode(value))) == typed(value)
        assert struct.pack("<d", codec.decode(codec.encode(-0.0))) == (
            struct.pack("<d", -0.0)
        )

    def test_nan_survives(self):
        back = codec.decode(codec.encode(float("nan")))
        assert back != back

    def test_tuples_decode_as_lists(self):
        assert codec.decode(codec.encode((1, (2, b"x")))) == [1, [2, b"x"]]
        assert codec.encode((1, 2)) == codec.encode([1, 2])
        column = tuple(range(20))
        assert codec.decode(codec.encode(column)) == list(column)

    @pytest.mark.parametrize("value", [
        {1, 2}, object(), bytearray(b"x"), {1.5: 0}, {True: 0}, {(1, 2): 0},
        {None: 0}, [1, {b"k": 0}],
    ])
    def test_types_outside_the_table_are_refused(self, value):
        with pytest.raises(TypeError):
            codec.encode(value)


def _sorted(value):
    """``value`` with every dict in the codec's key order."""
    if isinstance(value, (list, tuple)):
        return [_sorted(item) for item in value]
    if isinstance(value, dict):
        ints = sorted(k for k in value if isinstance(k, int))
        strs = sorted(k for k in value if isinstance(k, str))
        return {k: _sorted(value[k]) for k in ints + strs}
    return value


class TestCanonicalBytes:
    @settings(max_examples=150, deadline=None)
    @given(
        items=st.dictionaries(KEYS, VALUES, min_size=2, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_insertion_order_does_not_reach_the_bytes(self, items, seed):
        pairs = list(items.items())
        random.Random(seed).shuffle(pairs)
        assert codec.encode(dict(pairs)) == codec.encode(items)

    def test_int_keys_before_str_keys_each_ascending(self):
        value = {"b": 0, 10: 0, "a": 0, -3: 0, "10": 0}
        assert list(codec.decode(codec.encode(value))) == [-3, 10, "10", "a", "b"]


class TestPackedColumns:
    LIST, INTS, BLOBS = 0x08, 0x0A, 0x0B

    @pytest.mark.parametrize("low, high, width", [
        (-128, 127, 1), (-129, 0, 2), (0, 128, 2), (-(2**15), 2**15 - 1, 2),
        (0, 2**15, 4), (-(2**31), 2**31 - 1, 4), (0, 2**31, 8),
        (-(2**63), 2**63 - 1, 8),
    ])
    def test_int_column_takes_the_narrowest_width(self, low, high, width):
        column = [low, high] + [0] * codec.PACK_MIN
        data = codec.encode(column)
        assert data[0] == self.INTS and data[1] == width
        assert len(data) == 6 + width * len(column)
        assert codec.decode(data) == column

    def test_bytes_column_layout(self):
        column = [b"ab", b"", b"cde"] * 3
        data = codec.encode(column)
        assert data == (
            bytes([self.BLOBS]) + struct.pack("<I", 9)
            + struct.pack("<9I", *(len(item) for item in column))
            + b"".join(column)
        )
        assert codec.decode(data) == column

    @pytest.mark.parametrize("column", [
        [1] * 7 + [True],  # a bool is not an int
        [1] * 7 + [None],
        [1] * 7 + [1.0],
        [1] * 7 + [2**63],  # needs more than 64 bits
        [b"x"] * 7 + ["x"],
        [b"x"] * 7 + [1],
        [True] * 8,
        [1] * (codec.PACK_MIN - 1),  # too short to pay
        [b"x"] * (codec.PACK_MIN - 1),
    ])
    def test_mixed_or_short_lists_stay_generic(self, column):
        data = codec.encode(column)
        assert data[0] == self.LIST
        assert typed(codec.decode(data)) == typed(column)

    def test_empty_columns_decode(self):
        """The encoder never writes one, the decoder still reads it."""
        assert codec.decode(bytes([self.INTS, 8]) + struct.pack("<I", 0)) == []
        assert codec.decode(bytes([self.BLOBS]) + struct.pack("<I", 0)) == []

    @pytest.mark.parametrize("dtype, low, high, width", [
        (dtype, low, high, width)
        for dtype in ("<i8", "<i4", "<i2", "i1", "<u4", "<u8")
        for low, high, width in [
            (-128, 127, 1), (-129, 100, 2), (0, 128, 2),
            (-(2**15), 2**15 - 1, 2), (0, 2**15, 4), (-(2**31), 2**31 - 1, 4),
            (0, 2**31, 8), (-(2**63), 2**63 - 1, 8),
        ]
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max
    ])
    def test_int_array_is_written_as_the_equal_list(self, dtype, low, high, width):
        column = [low, high, 0, 1] * 3
        data = codec.encode(np.array(column, dtype=dtype))
        assert data == codec.encode(column)
        assert data[0] == self.INTS and data[1] == width
        assert typed(codec.decode(data)) == typed(column)

    @pytest.mark.parametrize("count", [0, 1, codec.PACK_MIN - 1])
    def test_short_and_empty_arrays_take_the_generic_form_too(self, count):
        column = list(range(-1, count - 1))
        data = codec.encode(np.array(column, dtype=np.int64))
        assert data == codec.encode(column) and data[0] == self.LIST
        assert typed(codec.decode(data)) == typed(column)

    def test_non_contiguous_slices(self):
        table = np.arange(-60, 60, dtype=np.int64).reshape(12, 10)
        for view in (table[:, 3], table[::2, 0], table[3, ::-3], table[::-1, 9]):
            assert not view.flags.c_contiguous or view.size == 1
            assert codec.encode(view) == codec.encode(view.tolist())
        nested = {"rings": {2: [table[:, 1], table[1, :4]]}, "n": 3}
        plain = {"rings": {2: [table[:, 1].tolist(), table[1, :4].tolist()]}, "n": 3}
        assert codec.encode(nested) == codec.encode(plain)
        assert codec.decode(codec.encode(nested)) == plain

    def test_uint64_past_the_signed_word_stays_generic(self):
        column = [2**63, 0, 1, 2, 3, 4, 5, 6]
        data = codec.encode(np.array(column, dtype=np.uint64))
        assert data == codec.encode(column) and data[0] == self.LIST

    @pytest.mark.parametrize("value", [
        np.zeros((3, 3), dtype=np.int64), np.zeros(9), np.zeros(9, dtype=bool),
        np.int64(3), np.array(3),
    ])
    def test_other_arrays_are_refused(self, value):
        with pytest.raises(TypeError):
            codec.encode(value)

    @settings(max_examples=150, deadline=None)
    @given(
        column=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
        step=st.sampled_from([1, 2, -1, -3]),
    )
    def test_any_int64_array_round_trips_as_its_list(self, column, step):
        view = np.array(column, dtype=np.int64)[::step]
        data = codec.encode(view)
        assert data == codec.encode(view.tolist())
        assert typed(codec.decode(data)) == typed(view.tolist())


class TestMalformedBodies:
    @settings(max_examples=100, deadline=None)
    @given(value=VALUES, data=st.data())
    def test_truncation_and_trailing_bytes_are_errors(self, value, data):
        encoded = codec.encode(value)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(ValueError):
            codec.decode(encoded[:cut])
        with pytest.raises(ValueError):
            codec.decode(encoded + b"\x00")

    @pytest.mark.parametrize("body", [
        b"\x0c", b"\xff",  # unknown tags
        b"\x0a\x03" + struct.pack("<I", 1) + b"abc",  # int column of width 3
        b"\x0a\x08" + struct.pack("<I", 2**31) + b"x" * 8,  # count past the end
        b"\x0b" + struct.pack("<II", 1, 99) + b"short",  # blob past the end
        b"\x07" + struct.pack("<I", 99) + b"short",
        b"\x06" + struct.pack("<I", 1) + b"\xff",  # not UTF-8
        b"\x09" + struct.pack("<I", 1) + b"\x00\x00",  # a None key
        b"\x09" + struct.pack("<I", 1) + b"\x08" + struct.pack("<I", 0) + b"\x00",
    ])
    def test_bad_bodies_raise_value_error(self, body):
        with pytest.raises(ValueError):
            codec.decode(body)

    def test_offset_skips_a_prefix(self):
        assert codec.decode(b"\xaa\xbb" + codec.encode([1, "x"]), 2) == [1, "x"]


class TestDamagedLogs:
    """A two-frame log, cut or flipped anywhere: the scan is unclean and
    hands back at most the frames before the damage."""

    RECORDS = [
        {"op": "insert", "key": 2**40 + 17, "delta": b"\x00\xffpayload"},
        {"prun": ["update", 3, 9, [5], [1], [b"\x01\x02"], [2]]},
    ]

    def log(self):
        frames = [encode_frame(rec, lsn) for lsn, rec in enumerate(self.RECORDS, 1)]
        return frames, b"".join(frames)

    def expected(self, count):
        return [dict(rec, lsn=lsn) for lsn, rec in enumerate(self.RECORDS, 1)][:count]

    def test_whole_log_is_clean(self):
        _, data = self.log()
        assert decode_frames(data) == (self.expected(2), True)

    def test_every_strict_prefix(self):
        frames, data = self.log()
        for cut in range(len(data)):
            records, clean = decode_frames(data[:cut])
            whole = 0 if cut < len(frames[0]) else 1
            assert records == self.expected(whole), cut
            assert clean == (cut in (0, len(frames[0]))), cut

    def test_every_single_bit_flip(self):
        frames, data = self.log()
        for bit in range(8 * len(data)):
            rotted = bytearray(data)
            rotted[bit // 8] ^= 1 << (bit % 8)
            records, clean = decode_frames(bytes(rotted))
            before = 0 if bit // 8 < len(frames[0]) else 1
            assert not clean, bit
            assert records == self.expected(before), bit


INT64 = st.integers(-(2**63), 2**63 - 1)
#: what a frame field may hold when it is *not* what the packer expects
ODD = st.one_of(
    st.none(), st.booleans(), st.integers(2**63, 2**70), st.text(max_size=3),
    st.binary(max_size=3), st.floats(allow_nan=False),
    st.lists(INT64, max_size=2),
)


def walked(record, lsn):
    """The frame as the codec's walker alone writes it."""
    value = codec.encode((lsn, record))
    body = bytes([codec.VERSION]) + value
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


class TestScalarFramePacker:
    """``encode_frame`` packs the two frames of a scalar durable write
    itself; whatever it is handed, the bytes are the walker's."""

    OP = ("delta", "key", "length", "op", "pos", "rank", "seq")

    @settings(max_examples=300, deadline=None)
    @given(
        action=st.sampled_from(["insert", "update", "delete", "upsert", ""]),
        ints=st.lists(INT64, min_size=6, max_size=6),
        delta=st.binary(max_size=40),
        lsn=st.one_of(st.none(), INT64),
        shuffle=st.randoms(use_true_random=False),
        odd=st.one_of(st.none(), st.tuples(st.integers(0, 8), ODD)),
    )
    def test_op_and_prun_frames_equal_the_walker(self, action, ints, delta,
                                                 lsn, shuffle, odd):
        key, length, pos, rank, seq, _ = ints
        fields = [delta, key, length, action, pos, rank, seq]
        if odd is not None and odd[0] < 7:
            fields[odd[0]] = odd[1]  # one field off its type
        pairs = list(zip(self.OP, fields))
        shuffle.shuffle(pairs)  # dict order must not matter
        op = dict(pairs)
        if odd is not None and odd[0] == 7:
            op["extra"] = odd[1]  # a key too many
        delta, key, length, action, pos, rank, seq = fields
        prun = {"prun": [action, pos, seq, [key], [rank], [delta], [length]]}
        if odd is not None and odd[0] == 8:
            prun["prun"][3] = [key, key]  # a run of two
        for record in (op, prun):
            try:
                expected = walked(record, lsn)
            except TypeError:
                with pytest.raises(TypeError):
                    encode_frame(record, lsn)
                continue
            frame = encode_frame(record, lsn)
            assert frame == expected
            back = dict(record, lsn=lsn) if lsn is not None else record
            assert decode_frames(frame) == ([codec.decode(codec.encode(back))], True)

    @pytest.mark.parametrize("record", [
        {"prun": ("update", 3, 9, (5,), (1,), (b"x",), (1,))},  # tuples
        {"prun": ["update", 3, None, [5], [1], [b"x"], [1]]},  # unsequenced
        {"prun": ["update", 3, 9, b"\x05", [1], [b"x"], [1]]},  # bytes as a list
        {"prun": "update!"}, {"prun": []}, {"prun": None},
        {"op": "insert"}, {"op": ["insert"]}, {"op": None, "key": 1},
        {"op": "insert", "key": True, "rank": 1, "pos": 0, "delta": b"",
         "length": 0, "seq": 1},
        {"op": "insert", "key": 1, "rank": 1, "pos": 0, "delta": bytearray(b""),
         "length": 0, "seq": 1},
    ])
    def test_near_misses_take_the_walker(self, record):
        try:
            expected = walked(record, 7)
        except TypeError:
            with pytest.raises(TypeError):
                encode_frame(record, 7)
        else:
            assert encode_frame(record, 7) == expected

    def test_the_scalar_shapes_do_not_reach_the_walker(self, monkeypatch):
        pruns = [
            {"prun": [action, 3, 77, [2**40], [5], [b"d" * 128], [length]]}
            for action, length in (("insert", 128), ("update", 128),
                                   ("delete", 0))
        ]
        expected = [walked(prun, 12) for prun in pruns]
        monkeypatch.setattr(codec, "encode", None)
        assert [encode_frame(prun, 12) for prun in pruns] == expected


def forge_version(frame, version):
    """``frame`` re-sealed with another format-version byte: the
    checksum holds, only the version is foreign."""
    body = bytes([version]) + frame[9:]
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


class TestFormatVersion:
    def test_body_leads_with_the_version_byte(self):
        assert encode_frame({"n": 1})[8] == codec.VERSION

    #: the format before this one, and one not written yet
    FOREIGN = (3, codec.VERSION + 1)

    def test_unknown_version_reads_as_no_blob(self):
        assert codec.VERSION == 4
        blob = encode_frame({"kind": "data"}, 3)
        assert decode_blob(blob) == {"kind": "data", "lsn": 3}
        for version in self.FOREIGN:
            forged = forge_version(blob, version)
            assert decode_blob(forged) is None
            assert decode_frames(blob + forged) == (
                [{"kind": "data", "lsn": 3}], False
            )

    def test_restart_from_a_foreign_image_falls_back_to_rebuild(self):
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=16, durability=True,
            parity_ack=True, client_acks=True,
        ))
        tracer, _, _ = file.enable_observability()
        for key in range(40):
            file.insert(key, b"v%d" % key)
        for version in self.FOREIGN:
            for node in ("f.d1", "f.p0.0"):
                server = file.network.nodes[node]
                server.checkpoint_now()
                disk, name = server._durable.disk, server._durable.wal.CHECKPOINT
                image = disk.read(name)
                assert decode_blob(image) is not None
                disk.write_file(name, forge_version(image, version))
                disk.fsync(name)
                before = tracer.counts.get("catchup.fallback", 0)
                file.failures.crash([node])
                file.failures.heal([node])
                assert tracer.counts.get("catchup.fallback", 0) == before + 1
        for key in range(40):
            assert file.search(key).value == b"v%d" % key
        assert file.verify_parity_consistency() == []


class TestGoldenImages:
    """sha256 of one data and one parity checkpoint file: a change to
    the tag set, a column layout or an image schema shows up here and
    has to come with a new :data:`codec.VERSION`."""

    DATA = "b72cf6302f11042e48aa7e127a6f68378c094f73b12506f72540e9d5fbd4e469"
    PARITY = "7ce3e2f09f22ca3d5675febd9eabf019fef45f696c443056dbb5874311052c74"

    def images(self):
        file = LHRSFile(LHRSConfig(
            group_size=4, availability=2, bucket_capacity=64,
            durability=True, field_width=8,
        ))
        rng = random.Random(20)
        keys = [rng.randrange(2**40) for _ in range(48)]
        for key in keys:
            file.insert(key, rng.randbytes(rng.randrange(0, 40)))
        for key in keys[1::7]:
            file.delete(key)
        for key in keys[::3]:
            file.update(key, rng.randbytes(rng.randrange(0, 40)))
        out = []
        for node in ("f.d0", "f.p0.1"):
            server = file.network.nodes[node]
            server.checkpoint_now()
            image = server._durable.disk.read(server._durable.wal.CHECKPOINT)
            state = decode_blob(image)
            out.append((state, hashlib.sha256(image).hexdigest()))
        return out

    def test_images_are_pinned(self):
        (data, data_hash), (parity, parity_hash) = self.images()
        assert data["kind"] == "data" and len(data["keys"]) >= codec.PACK_MIN
        assert not {"counter", "free", "queue"} & set(data)
        assert parity["kind"] == "parity" and "delta_log" not in parity
        store = parity["store"]  # since VERSION 3: the live columns
        assert -1 in store["rank_of"] and len(store["dir_keys"]) == (
            store["slots"] * len(store["rank_of"]))
        assert (data_hash, parity_hash) == (self.DATA, self.PARITY)
