"""Deterministic tagged binary codec for WAL frame bodies and images.

One value is one tag byte followed by its content (little-endian):

====  ========  ====================================================
tag   type      content
====  ========  ====================================================
0x00  None      —
0x01  False     —
0x02  True      —
0x03  int       ``<q`` (fits a signed 64-bit word)
0x04  int       ``<u32 n>`` + n bytes, signed little-endian (the rest)
0x05  float     ``<d``
0x06  str       ``<u32 n>`` + n bytes of UTF-8
0x07  bytes     ``<u32 n>`` + n bytes
0x08  list      ``<u32 count>`` + count values
0x09  dict      ``<u32 count>`` + count (key, value) pairs; a key is
                an ``int`` or a ``str`` value, written ints ascending
                first, then strs ascending
0x0A  list      packed int column: ``<u8 width> <u32 count>`` + count
                signed integers of ``width`` ∈ {1, 2, 4, 8} bytes;
                a 1-D integer ``ndarray`` is written as the equal list
0x0B  list      packed bytes column: ``<u32 count>`` + count ``<u32>``
                lengths + the items joined into one blob
====  ========  ====================================================

Keys keep their type (``"7"`` stays a ``str``, ``7`` an ``int``),
``True`` is not ``1``, and equal values encode to equal bytes whatever
order a dict was built in — the encoding depends on no ``hash()`` and
no set order.  Tuples are written as lists and decode as lists.

The two packed columns are what make a checkpoint image cheap: a list of
:data:`PACK_MIN` or more items that are all ``int`` (and fit 64 bits) or
all ``bytes`` is written as one column — chosen by inspecting the list,
the narrowest integer width that holds its extremes — and decodes back
to a plain list.  Shorter or mixed lists take the generic form.  A
one-dimensional integer ``numpy`` array encodes to the very bytes of the
list of its items, straight from its buffer — a column that already
lives as an array skips the inspection and the list → array pass.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Any, Callable

import numpy as np

#: version of this tag set; the first byte of every frame body
VERSION = 3

#: shortest list that takes a packed column (below it the generic form
#: is as small and skips the array round trip)
PACK_MIN = 8

(
    _NONE, _FALSE, _TRUE, _INT, _BIGINT, _FLOAT, _STR, _BYTES, _LIST, _DICT,
    _INTS, _BLOBS,
) = range(12)

_TAG_LEN = struct.Struct("<BI")  # tag (or column width) + u32 length / count
_TAG_INT = struct.Struct("<Bq")
_TAG_FLOAT = struct.Struct("<Bd")
_TAG_INTS = struct.Struct("<BBI")  # tag + width + count
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_INT_DTYPES = {width: np.dtype(f"<i{width}") for width in (1, 2, 4, 8)}

Emit = Callable[[bytes], None]


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode(value: Any) -> bytes:
    """The canonical bytes of ``value``; ``TypeError`` on a type (or a
    dict key type) outside the table above."""
    out: list[bytes] = []
    _put(value, out.append)
    return b"".join(out)


def _put(value: Any, emit: Emit) -> None:
    kind = type(value)
    if kind is int:
        try:
            emit(_TAG_INT.pack(_INT, value))
        except struct.error:
            raw = value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)
            emit(_TAG_LEN.pack(_BIGINT, len(raw)))
            emit(raw)
    elif kind is bytes:
        emit(_TAG_LEN.pack(_BYTES, len(value)))
        emit(value)
    elif kind is str:
        raw = value.encode("utf-8")
        emit(_TAG_LEN.pack(_STR, len(raw)))
        emit(raw)
    elif kind is list or kind is tuple:
        _put_list(value, emit)
    elif kind is dict:
        _put_dict(value, emit)
    elif value is None:
        emit(b"\x00")
    elif kind is bool:
        emit(b"\x02" if value else b"\x01")
    elif kind is float:
        emit(_TAG_FLOAT.pack(_FLOAT, value))
    elif kind is np.ndarray:
        _put_array(value, emit)
    else:
        raise TypeError(f"cannot encode {kind.__name__} values")


def _put_list(value: "list[Any] | tuple[Any, ...]", emit: Emit) -> None:
    count = len(value)
    if count >= PACK_MIN:
        kinds = set(map(type, value))
        if kinds == {int}:
            try:
                column = np.array(value, dtype=_INT_DTYPES[8])
            except OverflowError:
                pass  # some item needs more than 64 bits: generic form
            else:
                _put_array(column, emit)
                return
        elif kinds == {bytes}:
            emit(_TAG_LEN.pack(_BLOBS, count))
            emit(struct.pack(f"<{count}I", *map(len, value)))
            emit(b"".join(value))
            return
    emit(_TAG_LEN.pack(_LIST, count))
    for item in value:
        _put(item, emit)


def _put_array(column: np.ndarray, emit: Emit) -> None:
    """A 1-D integer array, as the list of its items would be written."""
    if column.ndim != 1 or column.dtype.kind not in "iu":
        raise TypeError("only one-dimensional integer arrays encode")
    count = len(column)
    if count >= PACK_MIN:
        low, high = int(column.min()), int(column.max())
        width = next(
            (w for w in (1, 2, 4, 8)
             if -(1 << (8 * w - 1)) <= low and high < 1 << (8 * w - 1)),
            None,  # a uint64 past the signed word: generic form
        )
        if width is not None:
            emit(_TAG_INTS.pack(_INTS, width, count))
            emit(column.astype(_INT_DTYPES[width], copy=False).tobytes())
            return
    _put_list(column.tolist(), emit)


def _put_dict(value: dict[Any, Any], emit: Emit) -> None:
    kinds = set(map(type, value))
    if kinds <= {int} or kinds <= {str}:
        keys = sorted(value)
    elif kinds == {int, str}:
        keys = sorted(key for key in value if type(key) is int)
        keys += sorted(key for key in value if type(key) is str)
    else:
        raise TypeError("dict keys must be int or str")
    emit(_TAG_LEN.pack(_DICT, len(keys)))
    for key in keys:
        _put(key, emit)
        _put(value[key], emit)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def decode(data: bytes, offset: int = 0) -> Any:
    """The value whose encoding is exactly ``data[offset:]``.

    ``ValueError`` on anything else: an unknown tag, a length that runs
    past the end, bytes left over.
    """
    try:
        value, end = _get(data, offset)
    except (struct.error, IndexError, UnicodeDecodeError, TypeError) as exc:
        raise ValueError(f"malformed body: {exc}") from exc
    if end != len(data):
        raise ValueError(f"{len(data) - end} bytes after the value")
    return value


def _span(data: bytes, offset: int) -> tuple[int, int]:
    """``(start, end)`` of a ``<u32 n>`` + n bytes field at ``offset``."""
    start = offset + 4
    end = start + _U32.unpack_from(data, offset)[0]
    if end > len(data):
        raise ValueError("length runs past the end")
    return start, end


def _get(data: bytes, offset: int) -> tuple[Any, int]:
    tag = data[offset]
    offset += 1
    if tag == _INT:
        return _I64.unpack_from(data, offset)[0], offset + 8
    if tag == _BYTES:
        start, end = _span(data, offset)
        return data[start:end], end
    if tag == _STR:
        start, end = _span(data, offset)
        return data[start:end].decode("utf-8"), end
    if tag == _LIST:
        items = []
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        for _ in range(count):
            item, offset = _get(data, offset)
            items.append(item)
        return items, offset
    if tag == _DICT:
        out: dict[Any, Any] = {}
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        for _ in range(count):
            key, offset = _get(data, offset)
            if type(key) is not int and type(key) is not str:
                raise ValueError("dict key is neither int nor str")
            out[key], offset = _get(data, offset)
        return out, offset
    if tag == _INTS:
        width, count = _TAG_LEN.unpack_from(data, offset)
        offset += 5
        dtype = _INT_DTYPES.get(width)
        if dtype is None:
            raise ValueError(f"int column of width {width}")
        column = np.frombuffer(data, dtype, count, offset)
        return column.tolist(), offset + width * count
    if tag == _BLOBS:
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        lengths = struct.unpack_from(f"<{count}I", data, offset)
        bounds = list(accumulate(lengths, initial=offset + 4 * count))
        if bounds[-1] > len(data):
            raise ValueError("bytes column runs past the end")
        return [data[a:b] for a, b in zip(bounds, bounds[1:])], bounds[-1]
    if tag == _NONE:
        return None, offset
    if tag == _FALSE:
        return False, offset
    if tag == _TRUE:
        return True, offset
    if tag == _FLOAT:
        return _F64.unpack_from(data, offset)[0], offset + 8
    if tag == _BIGINT:
        start, end = _span(data, offset)
        return int.from_bytes(data[start:end], "little", signed=True), end
    raise ValueError(f"unknown tag {tag:#04x}")
