"""Runtime helpers called by vector-backend generated code.

The code generator (:mod:`repro.clc.codegen`) emits three-address Python
that calls these helpers.  Every helper that represents kernel work takes
the execution context and the active lane count and charges the op
accounting used by the device cost model.

Conventions: ``m`` is the active-lane mask (bool ndarray of shape
``(lanes,)``), ``mn`` its popcount; values are NumPy scalars (uniform) or
arrays of shape ``(lanes,)``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.clc.builtins import NUMPY_IMPLS
from repro.clc.errors import CLCRuntimeError

# -- op-accounting weights (abstract "ops" per active lane) -------------
W_ALU = 1.0
W_DIV = 4.0
W_MEM = 2.0
W_ATOMIC = 4.0


def count(m: np.ndarray) -> int:
    return int(np.count_nonzero(m))


def not_(c: Any) -> Any:
    return np.logical_not(c)


def merge(m: np.ndarray, new: Any, old: Any) -> np.ndarray:
    """Masked assignment: new where active, old elsewhere."""
    return np.where(m, new, old)


def cast(ctx, mn: int, val: Any, dtype: str) -> Any:
    ctx.ops += mn * W_ALU
    dt = np.dtype(dtype)
    if isinstance(val, np.ndarray):
        return val.astype(dt, copy=False)
    return dt.type(val)


def uniform(val: Any, m: Any = None) -> int:
    """Collapse a uniform value (e.g. a work-item dimension index).

    Only the lanes active under ``m`` have to agree: inactive lanes may
    hold anything (a stale value from before a ``return``, or whatever a
    merge-free store left there).  With no active lane the result is
    never used, so any dimension will do."""
    arr = np.asarray(val)
    if arr.ndim == 0:
        return int(arr)
    if m is not None:
        arr = arr[m]
    if arr.size == 0:
        return 0
    first = arr.flat[0]
    if not np.all(arr == first):
        raise CLCRuntimeError("non-uniform value where a uniform was required")
    return int(first)


# -- lane compaction -------------------------------------------------------
#: A loop compacts at the head of an iteration once the active lanes are
#: at most this share of the current width ...
COMPACT_OCCUPANCY = 0.9
#: ... and the current width is above this many lanes: below it a NumPy
#: call costs about the same whatever the width, so gathering buys
#: nothing.  Both come from the measured tables in docs/architecture.md
#: ("Lane compaction"); they are not parameters of anything.
COMPACT_MIN_LANES = 4096


def _per_lane(val: Any) -> bool:
    return isinstance(val, np.ndarray) and val.ndim == 1


def compact(ctx, state, scatter, m: np.ndarray, *vals):
    """Narrow execution to the active lanes of ``m``.

    ``vals`` are the per-lane values in scope (uniform scalars pass
    through) and ``scatter`` says, per value, whether the loop assigns
    it and something reads it afterwards.  Returns ``[state, mask,
    *gathered]``: an all-true mask of the new width and every value
    gathered down to it.  ``state`` is ``None`` for a loop's first
    compaction and records what :func:`expand` needs: the context's lane
    selection at loop entry and, per compaction, the surviving lanes,
    the width they were gathered from and the values at that width —
    all of them the first time (the full-width values come back at the
    exit), later only the ``scatter`` ones (lanes that leave the loop
    after this compaction still need theirs).  ``flatnonzero`` keeps
    lane order, so stores and atomics still happen in lane order."""
    ix = np.flatnonzero(m)
    previous = ctx.narrow(ix)
    if state is None:
        state = (previous, [(ix, m.shape[0], vals)])
    else:
        kept = tuple(v if flag else None for flag, v in zip(scatter, vals))
        state[1].append((ix, m.shape[0], kept))
    out = [state, np.ones(ix.shape[0], dtype=bool)]
    out.extend(v[ix] if _per_lane(v) else v for v in vals)
    return out


def expand(ctx, state, scatter, *vals):
    """Undo every :func:`compact` of one loop at its exit, last first.

    ``scatter`` and ``vals`` are as for :func:`compact`.  A ``scatter``
    variable is written, level by level, over the surviving lanes of a
    *copy* of the wider value (plain assignments alias arrays between
    variables); every other variable gets its full-width value back.
    Returns ``[width at loop entry, *values]``."""
    selection, levels = state
    ctx.widen(selection)
    vals = list(vals)
    for ix, width, saved in reversed(levels):
        for i, flag in enumerate(scatter):
            if flag:
                full = np.empty(width, dtype=np.asarray(vals[i]).dtype)
                full[:] = saved[i]
                full[ix] = vals[i]
                vals[i] = full
            else:
                vals[i] = saved[i]
    return [levels[0][1], *vals]


# -- arithmetic ----------------------------------------------------------
def _charge(ctx, mn: int, w: float) -> None:
    ctx.ops += mn * w


def add(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.add(a, b)


def sub(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.subtract(a, b)


def mul(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.multiply(a, b)


def fdiv(ctx, mn, a, b):
    _charge(ctx, mn, W_DIV)
    return np.divide(a, b)


def idiv(ctx, mn, a, b):
    """C-style integer division: truncation toward zero.

    Division by zero is UB in C; this substrate defines it as 0 (both
    backends agree, so differential tests stay meaningful).
    """
    _charge(ctx, mn, W_DIV)
    zero = np.asarray(b) == 0
    b_safe = np.where(zero, np.ones_like(b), b)
    q = np.floor_divide(a, b_safe)
    r = a - q * b_safe
    # floor != trunc only when signs differ and remainder nonzero
    fix = (r != 0) & ((np.asarray(a) < 0) != (b_safe < 0))
    out = (q + fix).astype(np.result_type(a, b), copy=False)
    return np.where(zero, np.zeros_like(out), out)


def imod(ctx, mn, a, b):
    """C-style remainder (sign of the dividend); x % 0 defined as 0."""
    _charge(ctx, mn, W_DIV)
    zero = np.asarray(b) == 0
    b_safe = np.where(zero, np.ones_like(b), b)
    out = np.fmod(a, b_safe)
    return np.where(zero, np.zeros_like(out), out)


def neg(ctx, mn, a):
    _charge(ctx, mn, W_ALU)
    return np.negative(a)


def invert(ctx, mn, a):
    _charge(ctx, mn, W_ALU)
    return np.invert(a)


def shl(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    width = np.dtype(np.asarray(a).dtype).itemsize * 8
    return np.left_shift(a, np.asarray(b) & (width - 1))


def shr(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    width = np.dtype(np.asarray(a).dtype).itemsize * 8
    return np.right_shift(a, np.asarray(b) & (width - 1))


def bitand(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.bitwise_and(a, b)


def bitor(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.bitwise_or(a, b)


def bitxor(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.bitwise_xor(a, b)


# -- comparisons / logic ---------------------------------------------------
def lt(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.less(a, b)


def le(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.less_equal(a, b)


def gt(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.greater(a, b)


def ge(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.greater_equal(a, b)


def eq(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.equal(a, b)


def ne(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.not_equal(a, b)


def and_(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.logical_and(a, b)


def or_(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.logical_or(a, b)


def select(ctx, mn, c, a, b):
    _charge(ctx, mn, W_ALU)
    return np.where(c, a, b)


def math(ctx, mn, impl: str, weight: float, *args):
    _charge(ctx, mn, weight)
    return NUMPY_IMPLS[impl](*args)


# -- memory ----------------------------------------------------------------
def _safe_index(m: np.ndarray, idx: Any, size: int, what: str) -> np.ndarray:
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    active = idx_arr[m]
    if active.size:
        bad = (active < 0) | (active >= size)
        if bad.any():
            off = int(active[np.argmax(bad)])
            raise CLCRuntimeError(
                f"out-of-bounds {what}: index {off} not in [0, {size})"
            )
    return np.where(m, idx_arr, 0)


def load_global(ctx, mn, m, buf: np.ndarray, idx):
    _charge(ctx, mn, W_MEM)
    safe = _safe_index(m, idx, buf.shape[0], "global load")
    return buf[safe]


def store_global(ctx, mn, m, buf: np.ndarray, idx, val):
    _charge(ctx, mn, W_MEM)
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    _safe_index(m, idx_arr, buf.shape[0], "global store")
    val_arr = np.asarray(val, dtype=buf.dtype)
    if val_arr.ndim == 0:
        val_arr = np.broadcast_to(val_arr, m.shape)
    buf[idx_arr[m]] = val_arr[m]


def load_local(ctx, mn, m, arr: np.ndarray, idx):
    _charge(ctx, mn, W_MEM)
    safe = _safe_index(m, idx, arr.shape[1], "local load")
    return arr[ctx.group_ordinal, safe]


def store_local(ctx, mn, m, arr: np.ndarray, idx, val):
    _charge(ctx, mn, W_MEM)
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    _safe_index(m, idx_arr, arr.shape[1], "local store")
    val_arr = np.asarray(val, dtype=arr.dtype)
    if val_arr.ndim == 0:
        val_arr = np.broadcast_to(val_arr, m.shape)
    arr[ctx.group_ordinal[m], idx_arr[m]] = val_arr[m]


def private_array(ctx, dtype: str, size: int) -> np.ndarray:
    return np.zeros((ctx.lanes, size), dtype=np.dtype(dtype))


def load_private(ctx, mn, m, arr: np.ndarray, idx):
    _charge(ctx, mn, W_MEM)
    safe = _safe_index(m, idx, arr.shape[1], "private load")
    return arr[ctx.lane_ids, safe]


def store_private(ctx, mn, m, arr: np.ndarray, idx, val):
    _charge(ctx, mn, W_MEM)
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    _safe_index(m, idx_arr, arr.shape[1], "private store")
    val_arr = np.asarray(val, dtype=arr.dtype)
    if val_arr.ndim == 0:
        val_arr = np.broadcast_to(val_arr, m.shape)
    arr[ctx.lane_ids[m], idx_arr[m]] = val_arr[m]


# -- atomics -----------------------------------------------------------------
_ATOMIC_UFUNC = {
    "atomic_add": np.add,
    "atomic_sub": np.subtract,
    "atomic_min": np.minimum,
    "atomic_max": np.maximum,
    "atomic_and": np.bitwise_and,
    "atomic_or": np.bitwise_or,
    "atomic_xor": np.bitwise_xor,
}


def atomic(ctx, mn, m, op: str, kind: str, arr: np.ndarray, idx, *vals):
    """Vectorised atomics on global/local/private storage.

    Returns the value observed *before this dispatch's updates* (OpenCL
    leaves intra-dispatch ordering undefined; the reference interpreter
    provides exact serialised semantics for differential checks on end
    state).
    """
    _charge(ctx, mn, W_ATOMIC)
    if kind == "global":
        size = arr.shape[0]
        target = arr
        rows = None
    elif kind == "local":
        size = arr.shape[1]
        target = arr
        rows = ctx.group_ordinal
    else:  # private
        size = arr.shape[1]
        target = arr
        rows = ctx.lane_ids
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    _safe_index(m, idx_arr, size, f"{op}")
    sel = idx_arr[m]
    if rows is None:
        old = target[np.where(m, idx_arr, 0)]
    else:
        old = target[rows, np.where(m, idx_arr, 0)]

    def _vals(i: int) -> np.ndarray:
        v = np.asarray(vals[i], dtype=target.dtype)
        if v.ndim == 0:
            v = np.broadcast_to(v, m.shape)
        return v[m]

    if op in _ATOMIC_UFUNC:
        ufunc = _ATOMIC_UFUNC[op]
        if rows is None:
            ufunc.at(target, sel, _vals(0))
        else:
            ufunc.at(target, (rows[m], sel), _vals(0))
    elif op == "atomic_inc":
        if rows is None:
            np.add.at(target, sel, target.dtype.type(1))
        else:
            np.add.at(target, (rows[m], sel), target.dtype.type(1))
    elif op == "atomic_dec":
        if rows is None:
            np.subtract.at(target, sel, target.dtype.type(1))
        else:
            np.subtract.at(target, (rows[m], sel), target.dtype.type(1))
    elif op == "atomic_xchg":
        if rows is None:
            target[sel] = _vals(0)
        else:
            target[rows[m], sel] = _vals(0)
    elif op == "atomic_cmpxchg":
        cmp_v, new_v = _vals(0), _vals(1)
        if rows is None:
            cur = target[sel]
            target[sel] = np.where(cur == cmp_v, new_v, cur)
        else:
            cur = target[rows[m], sel]
            target[rows[m], sel] = np.where(cur == cmp_v, new_v, cur)
    else:  # pragma: no cover - sema rejects unknown atomics
        raise CLCRuntimeError(f"unknown atomic {op!r}")
    return old


def barrier(ctx, m) -> None:
    """Work-group barrier.  Lockstep vector execution satisfies barrier
    semantics automatically, but *divergent* barriers (not all work-items
    of a group reach it) are undefined behaviour in OpenCL — we detect and
    report them."""
    ctx.ops += count(m)  # a barrier is not free
    if ctx.group_size <= 1:
        return
    per_group = m.reshape(-1, ctx.group_size)
    group_any = per_group.any(axis=1)
    group_all = per_group.all(axis=1)
    if np.any(group_any & ~group_all):
        raise CLCRuntimeError(
            "divergent barrier: not all work-items of a group reached barrier()"
        )
