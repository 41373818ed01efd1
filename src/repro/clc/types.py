"""The OpenCL C scalar type system and conversion rules.

Implements the parts of C99/OpenCL-C typing that kernels rely on: integer
promotion, usual arithmetic conversions, and explicit casts.  Each scalar
type maps onto a NumPy dtype so that the vector backend gets C-faithful
widths and wraparound (NumPy's own promotion rules differ from C, so the
semantic analyser decides every result type and the code generator inserts
explicit casts).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

import numpy as np


@dataclass(frozen=True)
class ScalarType:
    """A scalar OpenCL C type."""

    name: str
    dtype: str  # numpy dtype string
    rank: int  # promotion rank; higher wins
    is_float: bool
    signed: bool  # meaningful for integers only

    @cached_property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def size(self) -> int:
        return self.np_dtype.itemsize

    @property
    def is_integer(self) -> bool:
        return not self.is_float

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType:
    """A pointer into one of the OpenCL address spaces."""

    pointee: ScalarType
    address_space: str  # "global" | "local" | "constant" | "private"

    def __str__(self) -> str:
        return f"__{self.address_space} {self.pointee}*"


@dataclass(frozen=True)
class VoidType:
    name: str = "void"

    def __str__(self) -> str:
        return "void"


VOID = VoidType()

BOOL = ScalarType("bool", "bool", 0, False, False)
CHAR = ScalarType("char", "int8", 1, False, True)
UCHAR = ScalarType("uchar", "uint8", 1, False, False)
SHORT = ScalarType("short", "int16", 2, False, True)
USHORT = ScalarType("ushort", "uint16", 2, False, False)
INT = ScalarType("int", "int32", 3, False, True)
UINT = ScalarType("uint", "uint32", 3, False, False)
LONG = ScalarType("long", "int64", 4, False, True)
ULONG = ScalarType("ulong", "uint64", 4, False, False)
SIZE_T = ScalarType("size_t", "uint64", 4, False, False)
FLOAT = ScalarType("float", "float32", 5, True, True)
DOUBLE = ScalarType("double", "float64", 6, True, True)

#: Name -> type for declaration parsing (including common aliases).
SCALAR_TYPES: Dict[str, ScalarType] = {
    "bool": BOOL,
    "char": CHAR,
    "uchar": UCHAR,
    "unsigned char": UCHAR,
    "short": SHORT,
    "ushort": USHORT,
    "unsigned short": USHORT,
    "int": INT,
    "uint": UINT,
    "unsigned int": UINT,
    "unsigned": UINT,
    "long": LONG,
    "ulong": ULONG,
    "unsigned long": ULONG,
    "size_t": SIZE_T,
    "ptrdiff_t": LONG,
    "float": FLOAT,
    "double": DOUBLE,
}

ADDRESS_SPACES = ("global", "local", "constant", "private")


def integer_promote(t: ScalarType) -> ScalarType:
    """C integer promotion: anything narrower than int becomes int."""
    if t.is_float:
        return t
    if t.rank < INT.rank:
        return INT
    return t


def usual_arithmetic_conversions(a: ScalarType, b: ScalarType) -> ScalarType:
    """The C99 'usual arithmetic conversions' for a binary operator."""
    if a.is_float or b.is_float:
        if DOUBLE in (a, b):
            return DOUBLE
        return FLOAT
    a = integer_promote(a)
    b = integer_promote(b)
    if a == b:
        return a
    if a.signed == b.signed:
        return a if a.rank >= b.rank else b
    unsigned, signed = (a, b) if not a.signed else (b, a)
    if unsigned.rank >= signed.rank:
        return unsigned
    # Signed type can represent all unsigned values (e.g. long vs uint).
    return signed


def is_arithmetic(t: object) -> bool:
    return isinstance(t, ScalarType)


def type_from_literal_suffix(text: str) -> Optional[ScalarType]:
    """Type of an integer literal from its suffix (``u``, ``l``, ``ul``)."""
    suffix = ""
    body = text.lower()
    while body and body[-1] in "ul":
        suffix = body[-1] + suffix
        body = body[:-1]
    if "u" in suffix and "l" in suffix:
        return ULONG
    if "l" in suffix:
        return LONG
    if "u" in suffix:
        return UINT
    return None
