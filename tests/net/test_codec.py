import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import CodecError, decode, encode, encoded_size


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**62,
        -(2**62),
        3.14159,
        float("inf"),
        "",
        "hello",
        "üñïçødé",
        b"",
        b"\x00\xff" * 100,
        [],
        [1, 2, 3],
        ["a", [1, [2.0, None]]],
        {},
        {"k": 1, "nested": {"x": [True, b"raw"]}},
    ],
)
def test_round_trip(value):
    assert decode(encode(value)) == value


def test_tuple_decodes_as_list():
    assert decode(encode((1, 2))) == [1, 2]


def test_ndarray_round_trip():
    arr = np.arange(17, dtype=np.float32)
    out = decode(encode(arr))
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, arr)


def test_ndarray_int64_round_trip():
    arr = np.array([-5, 0, 5], dtype=np.int64)
    np.testing.assert_array_equal(decode(encode(arr)), arr)


def test_2d_array_rejected():
    with pytest.raises(CodecError):
        encode(np.zeros((2, 2)))


def test_unencodable_type_rejected():
    with pytest.raises(CodecError):
        encode(object())


def test_non_str_dict_keys_rejected():
    with pytest.raises(CodecError):
        encode({1: "x"})


def test_oversized_int_rejected():
    with pytest.raises(CodecError):
        encode(2**70)


def test_trailing_bytes_rejected():
    with pytest.raises(CodecError):
        decode(encode(1) + b"\x00")


def test_truncated_data_rejected():
    data = encode("hello world")
    with pytest.raises(CodecError):
        decode(data[:-3])


def test_unknown_tag_rejected():
    for tag in (0xC1, 0xCE, 0xCF, 0xD4, 0xDF):
        with pytest.raises(CodecError):
            decode(bytes([tag]))


def test_empty_input_rejected():
    with pytest.raises(CodecError):
        decode(b"")


def test_malformed_wire_strings_and_keys_rejected():
    # Bad wire data is CodecError, never UnicodeDecodeError / TypeError.
    with pytest.raises(CodecError):
        decode(b"\xc6\x01\xff")  # a str that is not UTF-8
    with pytest.raises(CodecError):
        decode(b"\xca\x01" + encode([]) + encode(1))  # a list as dict key
    with pytest.raises(CodecError):
        decode(b"\xca\x01" + encode(1) + encode(1))  # an int as dict key


@pytest.mark.parametrize(
    "value, size",
    [
        (0, 1), (127, 1), (-1, 1), (-32, 1),
        (128, 3), (-33, 2), (-128, 2), (-129, 3),
        (32767, 3), (32768, 5), (-32768, 3), (-32769, 5),
        (2**31 - 1, 5), (2**31, 9), (-(2**31), 5), (-(2**31) - 1, 9),
        (2**63 - 1, 9), (-(2**63), 9),
    ],
)
def test_integers_take_the_narrowest_form(value, size):
    assert encoded_size(value) == len(encode(value)) == size
    assert decode(encode(value)) == value
    assert type(decode(encode(value))) is int


@pytest.mark.parametrize("n", [0, 1, 255, 256, 70000])
def test_short_values_take_a_one_byte_length_head(n):
    head = 2 if n < 256 else 5
    for value in ("s" * n, b"b" * n, [None] * n, {f"{i:05}": None for i in range(n)}):
        assert len(encode(value)) == encoded_size(value) == head + (len(encode(value)) - head)
        assert decode(encode(value)) == value
    assert len(encode("s" * n)) == head + n
    assert len(encode([None] * n)) == head + n


def test_floats_stay_bit_exact_doubles():
    for value in (0.0, -0.0, 1e-300, 2.0**-1074, float("inf"), 0.1 + 0.2):
        wire = encode(value)
        assert len(wire) == encoded_size(value) == 9
        assert struct.pack("<d", decode(wire)) == struct.pack("<d", value)
    assert encode(-0.0) != encode(0.0)
    assert encode(1) != encode(1.0) != encode(True)


def _single_bits(value) -> int:
    return int(np.asarray(value, dtype=np.float32).view(np.uint32))


@pytest.mark.parametrize(
    "bits",
    [0x00000000, 0x80000000, 0x3FC00000, 0x00000001, 0x7F800000, 0xFF800000,
     0x7FC00000, 0x7FC00001, 0x7F800001, 0xFFC12345],
    ids=["0", "-0", "1.5", "denormal", "inf", "-inf", "nan", "nan-payload",
         "signaling-nan", "negative-nan"],
)
def test_float32_is_a_bit_exact_single(bits):
    """``np.float32`` crosses as a 5-byte single under its own tag and
    comes back a ``np.float32`` with the same bits: ``-0.0`` and every
    NaN payload survive."""
    value = np.uint32(bits).view(np.float32)
    wire = encode(value)
    assert len(wire) == encoded_size(value) == 5
    assert wire == b"\xce" + struct.pack("<I", bits)
    decoded = decode(wire)
    assert type(decoded) is np.float32 and _single_bits(decoded) == bits


def test_one_encoding_per_float_value():
    """A value has exactly one encoding and equal encodings mean equal
    values: a single and the double of the same number differ, as do
    ``0.0`` and ``-0.0`` of either width; other NumPy floats are
    doubles."""
    assert encode(np.float32(1.5)) != encode(1.5) == encode(np.float64(1.5))
    assert encode(np.float16(1.5)) == encode(1.5)
    assert encode(np.float32(-0.0)) != encode(np.float32(0.0))
    assert encode(np.float32(2.5)) == encode(np.float32(2.5))
    assert decode(encode([np.float32(0.25), 0.25])) == [0.25, 0.25]
    assert [type(v) for v in decode(encode([np.float32(0.25), 0.25]))] == [np.float32, float]


def test_encoded_size_matches():
    v = {"a": [1, 2.0, "three"]}
    assert encoded_size(v) == len(encode(v))


# ----------------------------------------------------------------------
# edge cases: arrays
# ----------------------------------------------------------------------
def test_empty_ndarray_round_trip():
    arr = np.array([], dtype=np.float64)
    out = decode(encode(arr))
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.float64
    assert out.size == 0


def test_0d_ndarray_rejected():
    scalar = np.array(3.5)  # shape ()
    with pytest.raises(CodecError):
        encode(scalar)
    with pytest.raises(CodecError):
        encoded_size(scalar)


def test_non_contiguous_slice_round_trip():
    base = np.arange(20, dtype=np.int32)
    view = base[::2]
    assert not view.flags["C_CONTIGUOUS"]
    out = decode(encode(view))
    np.testing.assert_array_equal(out, base[::2])
    assert encoded_size(view) == len(encode(view))


def test_decoded_array_is_writable_and_owned():
    wire = encode(np.arange(4, dtype=np.int16))
    out = decode(wire)
    out[0] = -1  # must not raise (no read-only view of the wire buffer)
    assert decode(wire)[0] == 0  # and must not alias the wire bytes


def test_ndarray_truncated_payload_rejected():
    wire = encode(np.arange(8, dtype=np.float32))
    with pytest.raises(CodecError):
        decode(wire[:-2])


def test_object_dtype_rejected_both_ways():
    arr = np.array([object()], dtype=object)
    with pytest.raises(CodecError):
        encode(arr)
    with pytest.raises(CodecError):
        encoded_size(arr)
    # Hostile wire data claiming an object dtype must raise CodecError,
    # not let numpy's ValueError escape.
    import struct

    hostile = b"\xcc" + encode("|O") + struct.pack("<I", 8) + b"\x00" * 8
    with pytest.raises(CodecError):
        decode(hostile)
    for dtype_name in ("?i4", ",i4", ""):  # numpy: TypeError, SyntaxError, TypeError
        with pytest.raises(CodecError):
            decode(b"\xcc" + encode(dtype_name) + struct.pack("<I", 4) + b"\x00" * 4)


# ----------------------------------------------------------------------
# edge cases: nesting, int range, size arithmetic
# ----------------------------------------------------------------------
def test_deeply_nested_dict_list_round_trip():
    v = {"a": [{"b": [1, [2, [3, {"c": b"\x00\x01"}]]]}, {}], "d": {"e": []}}
    assert decode(encode(v)) == v
    assert encoded_size(v) == len(encode(v))


def test_encoded_size_rejects_out_of_range_int_without_encoding():
    with pytest.raises(CodecError):
        encoded_size(2**64)
    with pytest.raises(CodecError):
        encoded_size(-(2**63) - 1)
    # Boundary values are fine.
    assert encoded_size(2**63 - 1) == 9
    assert encoded_size(-(2**63)) == 9


def test_encoded_size_is_arithmetic_for_big_payloads():
    # O(1) for bytes/ndarray: tag + 4-byte length (+ dtype string).
    blob = bytes(1 << 20)
    assert encoded_size(blob) == 5 + len(blob)
    arr = np.zeros(1 << 18, dtype=np.float64)
    assert encoded_size(arr) == 1 + encoded_size(arr.dtype.str) + 4 + arr.nbytes
    assert encoded_size([blob, arr]) == 2 + encoded_size(blob) + encoded_size(arr)


def test_decode_accepts_bytearray_and_memoryview():
    v = {"xs": [1, 2.5, "s", b"b"], "arr": np.arange(3, dtype=np.uint16)}
    wire = encode(v)
    for form in (bytearray(wire), memoryview(wire)):
        out = decode(form)
        assert out["xs"] == [1, 2.5, "s", b"b"]
        np.testing.assert_array_equal(out["arr"], np.arange(3, dtype=np.uint16))


def test_memoryview_encodes_like_bytes():
    payload = b"\x01\x02\x03\x04"
    assert encode(memoryview(payload)) == encode(payload)
    assert encoded_size(memoryview(payload)) == encoded_size(payload)


def test_fortran_contiguous_memoryview_encodes():
    # .contiguous is true for F-layouts, but the zero-copy append needs
    # C-contiguity — must fall back to a compacting copy, not crash.
    arr = np.asfortranarray(np.arange(6, dtype=np.int32).reshape(2, 3))
    view = memoryview(arr)
    assert view.contiguous and not view.c_contiguous
    wire = encode(view)
    assert encoded_size(view) == len(wire)
    assert decode(wire) == bytes(view)

    from repro.net.streams import as_byte_view, as_uint8_array

    assert bytes(as_byte_view(view)) == bytes(view)
    assert as_uint8_array(view).nbytes == view.nbytes


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@given(json_like)
@settings(max_examples=300, deadline=None)
def test_round_trip_property(value):
    assert decode(encode(value)) == value


@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_decode_never_crashes_on_garbage(data):
    try:
        decode(data)
    except CodecError:
        pass  # rejecting garbage is correct; crashing is not


_ndarrays = st.sampled_from(["<i4", "<f8", "<u2", "|u1"]).flatmap(
    lambda dt: st.lists(st.integers(min_value=0, max_value=200), max_size=6).map(
        lambda xs: np.array(xs, dtype=np.dtype(dt))
    )
)

sizeable = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=30)
    | st.binary(max_size=30)
    | _ndarrays,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@given(sizeable)
@settings(max_examples=300, deadline=None)
def test_encoded_size_equals_encode_length_property(value):
    """The arithmetic size and the real encoding agree for every
    encodable value, ndarray leaves included."""
    assert encoded_size(value) == len(encode(value))
