"""Tagged binary wire codec.

Messages in the reproduction are *actually serialised* so that the network
cost model charges measured sizes rather than guesses, and so that the
daemon genuinely cannot share Python object state with the client driver
(the property that forces the stub/compound-stub design of the paper).

Supported value types: ``None``, ``bool``, ``int`` (64-bit signed),
``float`` (IEEE double), ``str``, ``bytes``, ``list``/``tuple`` (encoded
identically), ``dict`` with ``str`` keys, and 1-D ``numpy.ndarray`` of a
simple dtype.

The codec is zero-copy where it matters:

* :func:`encoded_size` computes the exact wire size *arithmetically*,
  without encoding — O(1) for ``bytes`` and ``ndarray`` payloads, so
  charging a message's network cost never materialises the message;
* :func:`encode` appends ``bytes``/``ndarray`` payloads straight into the
  output buffer through the buffer protocol (no intermediate ``bytes``
  copy via ``tobytes()``);
* :func:`decode` reconstructs arrays with a single ``np.frombuffer`` from
  the wire buffer (one copy total, for ownership) and accepts ``bytes``,
  ``bytearray`` or ``memoryview`` input.

Values dispatch by *exact type*: :data:`ENCODERS` and :data:`SIZERS`
map ``type(value)`` to the function that appends or sizes it
(:data:`DECODERS` is indexed by tag byte); a subclass — an ``IntEnum``
error code, ``np.int64`` — resolves by ``issubclass`` once and is cached
in the same table.  The message codecs :mod:`repro.net.messages`
compiles call the same tables, so a value has one encoding however it
is reached.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Tuple, Union

import numpy as np

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08
_TAG_NDARRAY = 0x09

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_pack_int = struct.Struct("<Bq").pack  # tag + value
_pack_float = struct.Struct("<Bd").pack
_pack_head = struct.Struct("<BI").pack  # tag + length / element count
_pack_len = struct.Struct("<I").pack
_unpack_int = struct.Struct("<q").unpack_from
_unpack_float = struct.Struct("<d").unpack_from
_unpack_len = struct.Struct("<I").unpack_from

Buffer = Union[bytes, bytearray, memoryview]


class CodecError(ValueError):
    """Unencodable value or malformed wire data."""


def encode(value: Any) -> bytes:
    """Encode ``value`` into the tagged binary format."""
    out = bytearray()
    ENCODERS[type(value)](value, out)
    return bytes(out)


def encoded_size(value: Any) -> int:
    """Exact size in bytes of ``encode(value)``, computed arithmetically.

    Never materialises the encoding: O(1) for ``bytes``-like and
    ``ndarray`` payloads, O(n) in the number of *elements* (not payload
    bytes) for containers.  Raises :class:`CodecError` for exactly the
    values :func:`encode` rejects, so it can be used as a cheap
    validity pre-check.
    """
    return SIZERS[type(value)](value)


def decode(data: Buffer) -> Any:
    """Decode one value; raises :class:`CodecError` on trailing bytes."""
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# by type: encoders ``(value, out)`` append, sizers ``(value)`` count
# ----------------------------------------------------------------------
def _encode_int(value: int, out: bytearray) -> None:
    try:
        out += _pack_int(_TAG_INT, value)
    except struct.error as exc:
        raise CodecError(f"integer out of 64-bit range: {value}") from exc


def _size_int(value: int) -> int:
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise CodecError(f"integer out of 64-bit range: {value}")
    return 9


def _encode_float(value: float, out: bytearray) -> None:
    out += _pack_float(_TAG_FLOAT, value)


def _encode_str(value: str, out: bytearray) -> None:
    data = value.encode("utf-8")
    out += _pack_head(_TAG_STR, len(data))
    out += data


def _size_str(value: str) -> int:
    return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))


def _encode_bytes(value: Union[bytes, bytearray, memoryview], out: bytearray) -> None:
    # The buffer-protocol append below needs C-contiguity (plain
    # .contiguous is also true for Fortran layouts).
    if type(value) is memoryview and not value.c_contiguous:
        value = bytes(value)
    out += _pack_head(_TAG_BYTES, value.nbytes if type(value) is memoryview else len(value))
    out += value  # no intermediate copy


def _encode_list(value: Union[list, tuple], out: bytearray) -> None:
    out += _pack_head(_TAG_LIST, len(value))
    for item in value:
        ENCODERS[type(item)](item, out)


def _size_list(value: Union[list, tuple]) -> int:
    total = 5
    for item in value:
        total += SIZERS[type(item)](item)
    return total


def _str_key(key: object) -> str:
    if not isinstance(key, str):
        raise CodecError(f"dict keys must be str, got {type(key).__name__}")
    return key


def _encode_dict(value: dict, out: bytearray) -> None:
    out += _pack_head(_TAG_DICT, len(value))
    for key, item in value.items():
        _encode_str(_str_key(key), out)
        ENCODERS[type(item)](item, out)


def _size_dict(value: dict) -> int:
    total = 5
    for key, item in value.items():
        total += _size_str(_str_key(key)) + SIZERS[type(item)](item)
    return total


def _encodable_array(value: np.ndarray) -> np.ndarray:
    if value.ndim != 1:
        raise CodecError(f"only 1-D arrays are encodable, got shape {value.shape}")
    if value.dtype.hasobject:
        raise CodecError("object-dtype arrays are not encodable")
    return value


def _encode_ndarray(value: np.ndarray, out: bytearray) -> None:
    arr = np.ascontiguousarray(_encodable_array(value))
    out.append(_TAG_NDARRAY)
    _encode_str(arr.dtype.str, out)
    out += _pack_len(arr.nbytes)
    out += memoryview(arr).cast("B")  # raw element bytes, no tobytes() copy


def _size_ndarray(value: np.ndarray) -> int:
    return 1 + _size_str(_encodable_array(value).dtype.str) + 4 + value.nbytes


#: Type -> (encoder, sizer), in ``isinstance`` precedence order.
_HANDLERS = {
    type(None): (lambda value, out: out.append(_TAG_NONE), lambda value: 1),
    bool: (lambda value, out: out.append(_TAG_TRUE if value else _TAG_FALSE), lambda value: 1),
    int: (_encode_int, _size_int),
    np.integer: (lambda value, out: _encode_int(int(value), out), lambda v: _size_int(int(v))),
    float: (_encode_float, lambda value: 9),
    np.floating: (lambda value, out: _encode_float(float(value), out), lambda value: 9),
    str: (_encode_str, _size_str),
    bytes: (_encode_bytes, lambda value: 5 + len(value)),
    bytearray: (_encode_bytes, lambda value: 5 + len(value)),
    memoryview: (_encode_bytes, lambda value: 5 + value.nbytes),
    list: (_encode_list, _size_list),
    tuple: (_encode_list, _size_list),
    dict: (_encode_dict, _size_dict),
    np.ndarray: (_encode_ndarray, _size_ndarray),
}


class _Dispatch(dict):
    """``type(value)`` -> handler.  A type that is not a key of
    :data:`_HANDLERS` (an ``IntEnum``, ``np.int64``) resolves to the
    first key it is a subclass of, once, and is cached under itself."""

    def __missing__(self, tp: type) -> Callable:
        for base in _HANDLERS:
            if issubclass(tp, base):
                handler = self[tp] = self[base]
                return handler
        raise CodecError(f"cannot encode value of type {tp.__name__}")


ENCODERS = _Dispatch((tp, pair[0]) for tp, pair in _HANDLERS.items())
SIZERS = _Dispatch((tp, pair[1]) for tp, pair in _HANDLERS.items())


# ----------------------------------------------------------------------
# by tag: decoders ``(data, offset past the tag)`` -> (value, offset past it)
# ----------------------------------------------------------------------
def _decode_from(data: Buffer, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise CodecError("truncated data: missing tag")
    tag = data[offset]
    if tag >= len(DECODERS):
        raise CodecError(f"unknown tag byte 0x{tag:02x} at offset {offset}")
    return DECODERS[tag](data, offset + 1)


def _check(data: Buffer, offset: int, need: int) -> None:
    if offset + need > len(data):
        raise CodecError(f"truncated data: need {need} bytes at offset {offset}")


def _read_len(data: Buffer, offset: int) -> Tuple[int, int]:
    _check(data, offset, 4)
    return _unpack_len(data, offset)[0], offset + 4


def _decode_scalar(unpack: Callable) -> Callable:
    def decode_scalar(data: Buffer, offset: int) -> Tuple[Any, int]:
        _check(data, offset, 8)
        return unpack(data, offset)[0], offset + 8

    return decode_scalar


def _decode_str(data: Buffer, offset: int) -> Tuple[str, int]:
    n, offset = _read_len(data, offset)
    _check(data, offset, n)
    try:
        return str(data[offset : offset + n], "utf-8"), offset + n
    except UnicodeDecodeError as exc:
        raise CodecError(f"string at offset {offset} is not UTF-8") from exc


def _decode_bytes(data: Buffer, offset: int) -> Tuple[bytes, int]:
    n, offset = _read_len(data, offset)
    _check(data, offset, n)
    return bytes(data[offset : offset + n]), offset + n


def _decode_list(data: Buffer, offset: int) -> Tuple[list, int]:
    n, offset = _read_len(data, offset)
    items = []
    for _ in range(n):
        item, offset = _decode_from(data, offset)
        items.append(item)
    return items, offset


def _decode_dict(data: Buffer, offset: int) -> Tuple[dict, int]:
    n, offset = _read_len(data, offset)
    result = {}
    for _ in range(n):
        key, offset = _decode_from(data, offset)
        result[_str_key(key)], offset = _decode_from(data, offset)
    return result, offset


def _decode_ndarray(data: Buffer, offset: int) -> Tuple[np.ndarray, int]:
    dtype_name, offset = _decode_from(data, offset)
    n, offset = _read_len(data, offset)
    _check(data, offset, n)
    try:
        dtype = np.dtype(dtype_name)
    except (TypeError, ValueError, SyntaxError) as exc:  # numpy parses "a,b" forms
        raise CodecError(f"bad dtype {dtype_name!r}") from exc
    if dtype.hasobject:
        raise CodecError(f"object dtype {dtype_name!r} is not wire-decodable")
    if dtype.itemsize == 0 or n % dtype.itemsize:
        raise CodecError(f"{n} payload bytes do not fit dtype {dtype_name!r}")
    # Single copy: frombuffer views the wire buffer, .copy() gives the
    # caller an owned, writable array.
    arr = np.frombuffer(data, dtype=dtype, count=n // dtype.itemsize, offset=offset).copy()
    return arr, offset + n


#: Tag byte -> decoder, in tag order.
DECODERS = (
    lambda data, offset: (None, offset),
    lambda data, offset: (False, offset),
    lambda data, offset: (True, offset),
    _decode_scalar(_unpack_int),
    _decode_scalar(_unpack_float),
    _decode_str,
    _decode_bytes,
    _decode_list,
    _decode_dict,
    _decode_ndarray,
)
