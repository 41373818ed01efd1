"""Unit and property tests for the vector runtime helpers.

Arithmetic is emitted by the code generator as plain NumPy expressions
and charged per basic block, so what used to be asserted on a charging
wrapper (``rt.add(ctx, mn, a, b)``) is asserted on a compiled kernel's
``ExecutionStats.ops`` and outputs instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clc import CLCRuntimeError, compile_program, execute_kernel
from repro.clc import vecrt as rt


class FakeCtx:
    def __init__(self, lanes=8, group_size=4):
        self.lanes = lanes
        self.group_size = group_size
        self.ops = 0.0
        self.lane_ids = np.arange(lanes)
        self.group_ordinal = np.arange(lanes) // group_size


@pytest.fixture
def ctx():
    return FakeCtx()


def _ops(body, active):
    """``ops`` of 8 work-items, ``active`` of which run ``body``."""
    source = f"""
    __kernel void k(__global float *a, const int n) {{
        int i = (int)get_global_id(0);
        if (i < n) {{ float x = a[i]; {body} }}
    }}
    """
    data = np.ones(8, dtype=np.float32)
    return execute_kernel(compile_program(source).kernel("k"), (8,), [data, active]).ops


def test_ops_charged_per_active_lane():
    assert _ops("a[i] = x + x;", 5) - _ops("a[i] = x;", 5) == 5 * rt.W_ALU
    assert _ops("a[i] = x / x;", 3) - _ops("a[i] = x;", 3) == 3 * rt.W_DIV


def test_restrict_and_split_partition_the_active_lanes():
    m = np.array([True, True, False, True])
    c = np.array([True, False, True, False])
    then, n = rt.restrict(m, 3, c)
    np.testing.assert_array_equal(then, [True, False, False, False])
    assert n == 1
    then, n, other, rest = rt.split(m, 3, c)
    np.testing.assert_array_equal(then, [True, False, False, False])
    np.testing.assert_array_equal(other, [False, True, False, True])
    assert (n, rest) == (1, 2)


@pytest.mark.parametrize("c", [np.bool_(True), np.bool_(False), np.array(True)])
def test_uniform_condition_is_never_broadcast_against_the_mask(c):
    """Every active lane goes one way: the mask object itself comes back."""
    m = np.array([True, True, False, True])
    then, n, other, rest = rt.split(m, 3, c)
    kept, dropped = (then, other) if c else (other, then)
    assert kept is m and not dropped.any()
    assert (n, rest) == ((3, 0) if c else (0, 3))
    then, n = rt.restrict(m, 3, c)
    assert (then is m and n == 3) if c else (not then.any() and n == 0)


def test_merge_broadcasts_scalars():
    m = np.array([True, False, True])
    out = rt.merge(m, np.int32(7), np.int32(1))
    np.testing.assert_array_equal(out, [7, 1, 7])


@given(
    a=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    b=st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
@settings(max_examples=300, deadline=None)
def test_idiv_imod_match_c_semantics(a, b):
    """Truncation toward zero; remainder takes the dividend's sign;
    division by zero defined as 0 (substrate rule)."""
    av = np.full(4, a, dtype=np.int64)
    bv = np.full(4, b, dtype=np.int64)
    with np.errstate(all="ignore"):
        q = rt.idiv(av, bv)
        r = rt.imod(av, bv)
    if b == 0:
        expected_q = expected_r = 0
    else:
        expected_q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
        expected_r = a - expected_q * b
    assert q[0] == expected_q
    assert r[0] == expected_r
    if b != 0:
        # C identity: (a/b)*b + a%b == a
        assert q[0] * b + r[0] == a


def test_shifts_mask_to_width():
    a = np.full(4, 1, dtype=np.int32)
    out = rt.shl(a, np.full(4, 33, dtype=np.int32))  # 33 & 31 == 1
    np.testing.assert_array_equal(out, 2)


def test_load_global_bounds_check():
    m = np.array([True] * 4 + [False] * 4)
    buf = np.arange(10, dtype=np.int32)
    idx = np.array([0, 1, 2, 3, 999, 999, 999, 999])  # OOB only on inactive lanes
    out = rt.load_global(4, m, buf, idx)
    np.testing.assert_array_equal(out[:4], [0, 1, 2, 3])
    bad = np.array([0, 1, 2, 99, 0, 0, 0, 0])
    with pytest.raises(CLCRuntimeError, match="out-of-bounds"):
        rt.load_global(4, m, buf, bad)


def test_store_global_masked():
    m = np.array([True, False] * 4)
    buf = np.zeros(8, dtype=np.int32)
    rt.store_global(4, m, buf, np.arange(8), np.full(8, 5, dtype=np.int32))
    np.testing.assert_array_equal(buf, [5, 0, 5, 0, 5, 0, 5, 0])


def test_local_store_uses_group_ordinal(ctx):
    m = np.ones(8, dtype=bool)
    arr = np.zeros((2, 4), dtype=np.float32)  # 2 groups of 4
    idx = np.tile(np.arange(4), 2)
    vals = np.arange(8, dtype=np.float32)
    rt.store_local(ctx, 8, m, arr, idx, vals)
    np.testing.assert_array_equal(arr[0], [0, 1, 2, 3])
    np.testing.assert_array_equal(arr[1], [4, 5, 6, 7])


def test_private_array_per_lane(ctx):
    arr = rt.private_array(ctx, "int32", 3)
    assert arr.shape == (8, 3)
    m = np.ones(8, dtype=bool)
    rt.store_private(ctx, 8, m, arr, np.zeros(8, dtype=np.int64), np.arange(8, dtype=np.int32))
    np.testing.assert_array_equal(arr[:, 0], np.arange(8))
    out = rt.load_private(ctx, 8, m, arr, np.zeros(8, dtype=np.int64))
    np.testing.assert_array_equal(out, np.arange(8))


def test_atomic_add_duplicate_indices(ctx):
    m = np.ones(8, dtype=bool)
    buf = np.zeros(2, dtype=np.int32)
    idx = np.array([0, 0, 0, 1, 1, 0, 1, 0])
    rt.atomic(ctx, 8, m, False, "atomic_add", "global", buf, idx, np.ones(8, dtype=np.int32))
    np.testing.assert_array_equal(buf, [5, 3])


def test_atomic_min_max(ctx):
    m = np.ones(4, dtype=bool)
    buf = np.array([100, -100], dtype=np.int32)
    rt.atomic(ctx, 4, m, False, "atomic_min", "global", buf,
              np.zeros(4, dtype=np.int64), np.array([7, 3, 9, 5], dtype=np.int32))
    rt.atomic(ctx, 4, m, False, "atomic_max", "global", buf,
              np.ones(4, dtype=np.int64), np.array([7, 3, 9, 5], dtype=np.int32))
    assert buf[0] == 3
    assert buf[1] == 9


def test_atomic_fetch_returns_the_value_before_the_dispatch(ctx):
    m = np.array([True, False] * 4)
    buf = np.arange(8, dtype=np.int32) * 10
    old = rt.atomic(ctx, 4, m, True, "atomic_add", "global", buf, np.arange(8), np.ones(8, dtype=np.int32))
    np.testing.assert_array_equal(old[m], [0, 20, 40, 60])
    np.testing.assert_array_equal(buf, [1, 10, 21, 30, 41, 50, 61, 70])
    assert rt.atomic(ctx, 4, m, False, "atomic_xchg", "global", buf, np.arange(8), np.int32(5)) is None
    np.testing.assert_array_equal(buf, [5, 10, 5, 30, 5, 50, 5, 70])


def test_atomic_inc_dec(ctx):
    m = np.ones(6, dtype=bool)
    buf = np.zeros(1, dtype=np.int32)
    rt.atomic(ctx, 6, m, False, "atomic_inc", "global", buf, np.zeros(6, dtype=np.int64))
    assert buf[0] == 6
    rt.atomic(ctx, 6, m, False, "atomic_dec", "global", buf, np.zeros(6, dtype=np.int64))
    assert buf[0] == 0


def test_uniform_accepts_scalar_and_uniform_array():
    assert rt.uniform(np.int64(3)) == 3
    assert rt.uniform(np.full(4, 2)) == 2
    with pytest.raises(CLCRuntimeError, match="non-uniform"):
        rt.uniform(np.array([1, 2]))


def test_barrier_detects_divergence():
    ctx = FakeCtx(lanes=8, group_size=4)
    rt.barrier(ctx, np.ones(8, dtype=bool))  # all active: fine
    partial = np.array([True, True, False, True] + [True] * 4)
    with pytest.raises(CLCRuntimeError, match="divergent barrier"):
        rt.barrier(ctx, partial)
    # A fully inactive group alongside a fully active one is fine.
    rt.barrier(ctx, np.array([False] * 4 + [True] * 4))


def test_cast_preserves_scalarness():
    assert np.isscalar(rt.cast(3.5, "int32")) or rt.cast(3.5, "int32").ndim == 0
    arr = rt.cast(np.ones(4, dtype=np.float64), "float32")
    assert arr.dtype == np.float32


def test_uniform_looks_at_active_lanes_only():
    val = np.array([7, 1, 1, 9])
    assert rt.uniform(val, np.array([False, True, True, False])) == 1
    with pytest.raises(CLCRuntimeError, match="non-uniform"):
        rt.uniform(val, np.array([True, True, False, False]))
    assert rt.uniform(val, np.zeros(4, dtype=bool)) == 0  # never used: any dimension will do


def test_compact_then_expand_restores_every_lane():
    """Two compactions of one loop: values of lanes that left after the
    first one come back from the level they were saved at."""
    from repro.clc.runtime import ExecContext, NDRange

    ctx = ExecContext(NDRange.create((8,), (4,)), 0, 2)
    x = np.arange(8, dtype=np.int32) * 10  # assigned in the loop, read after it
    y = np.arange(8, dtype=np.int32)  # only read
    u = np.int32(5)  # uniform: passes through
    m = np.array([True, False, True, True, False, True, False, True])
    scatter = (True, False, False)
    state, m1, x1, y1, u1 = rt.compact(ctx, None, scatter, m, x, y, u)
    assert m1.all() and m1.size == 5 and u1 is u
    np.testing.assert_array_equal(y1, [0, 2, 3, 5, 7])
    np.testing.assert_array_equal(ctx.get_global_id(0), [0, 2, 3, 5, 7])
    x1 = x1 + 1  # lanes 0 2 3 5 7 run an iteration
    state, m2, x2, y2, _ = rt.compact(
        ctx, state, scatter, np.array([True, False, False, True, True]), x1, y1, u
    )
    np.testing.assert_array_equal(ctx.get_global_id(0), [0, 5, 7])
    x2 = x2 + 100  # lanes 0 5 7 run another
    width, x3, y3, u3 = rt.expand(ctx, state, scatter, x2, y2, u)
    assert width == 8 and y3 is y and u3 is u
    np.testing.assert_array_equal(x3, [101, 10, 21, 31, 40, 151, 60, 171])
    np.testing.assert_array_equal(x, np.arange(8) * 10)  # scattered into a copy
    np.testing.assert_array_equal(ctx.get_global_id(0), np.arange(8))
