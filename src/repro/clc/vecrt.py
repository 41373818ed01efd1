"""Runtime helpers called by vector-backend generated code.

The code generator (:mod:`repro.clc.codegen`) emits plain NumPy
expressions for arithmetic, comparisons and math builtins and charges
the op accounting itself, once per basic block.  What is left here is
what carries OpenCL C semantics NumPy does not have: masked assignment,
partitioning the active lanes by a condition, lane compaction, C integer
division and shifts, conversions, bounds-checked memory access, atomics
and barriers.  The ``W_*`` weights below are what the generator charges
per active lane.

Conventions: ``m`` is the active-lane mask (bool ndarray of shape
``(lanes,)``), ``mn`` its popcount; values are NumPy scalars (uniform) or
arrays of shape ``(lanes,)``.  Helpers look at active lanes only, so
inactive lanes may hold anything; ``mn == m.shape[0]`` (every lane
active) is the fast path of the memory helpers: nothing to gather,
nothing to park.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.clc.errors import CLCRuntimeError

# -- op-accounting weights (abstract "ops" per active lane) -------------
W_ALU = 1.0
W_DIV = 4.0
W_MEM = 2.0
W_ATOMIC = 4.0


# -- masks -----------------------------------------------------------------
def count(m: np.ndarray) -> int:
    return int(np.count_nonzero(m))


def merge(m: np.ndarray, new: Any, old: Any) -> np.ndarray:
    """Masked assignment: new where active, old elsewhere."""
    return np.where(m, new, old)


def restrict(m: np.ndarray, mn: int, c: Any):
    """The lanes of ``m`` (``mn`` of them) where ``c`` holds, and how
    many they are.  A uniform ``c`` keeps or drops every lane and is
    never broadcast against the mask; with every lane active the mask
    is ``c`` itself (no mask is ever updated in place)."""
    if c.ndim == 0:
        return (m, mn) if c else (np.zeros_like(m), 0)
    m = c if mn == m.shape[0] else m & c
    return m, int(np.count_nonzero(m))


def split(m: np.ndarray, mn: int, c: Any):
    """:func:`restrict`, plus the other lanes of ``m`` and their count:
    the two arms of an ``if``."""
    if c.ndim == 0:
        return (m, mn, np.zeros_like(m), 0) if c else (np.zeros_like(m), 0, m, mn)
    if mn == m.shape[0]:
        n = int(np.count_nonzero(c))
        return c, n, ~c, mn - n
    then = m & c
    n = int(np.count_nonzero(then))
    return then, n, m & ~c, mn - n


# -- values ----------------------------------------------------------------
def cast(val: Any, dtype: str) -> Any:
    if isinstance(val, np.ndarray):
        return val.astype(dtype, copy=False)
    return np.dtype(dtype).type(val)


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
    after this compaction still need theirs).  A kernel that retires the
    lanes of its guard ``return`` passes ``state`` and ``scatter`` as
    ``None`` and drops the state: it never expands.  ``flatnonzero``
    keeps lane order, so stores and atomics still happen in lane order."""
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


# -- C integer arithmetic ---------------------------------------------------
def idiv(a, b):
    """C-style integer division: truncation toward zero.

    Division by zero is UB in C; this substrate defines it as 0 (both
    backends agree, so differential tests stay meaningful).
    """
    zero = np.asarray(b) == 0
    b_safe = np.where(zero, np.ones_like(b), b)
    q = np.floor_divide(a, b_safe)
    r = a - q * b_safe
    # floor != trunc only when signs differ and remainder nonzero
    fix = (r != 0) & ((np.asarray(a) < 0) != (b_safe < 0))
    out = (q + fix).astype(np.result_type(a, b), copy=False)
    return np.where(zero, np.zeros_like(out), out)


def imod(a, b):
    """C-style remainder (sign of the dividend); x % 0 defined as 0."""
    zero = np.asarray(b) == 0
    b_safe = np.where(zero, np.ones_like(b), b)
    out = np.fmod(a, b_safe)
    return np.where(zero, np.zeros_like(out), out)


def shl(a, b):
    width = np.dtype(np.asarray(a).dtype).itemsize * 8
    return np.left_shift(a, np.asarray(b) & (width - 1))


def shr(a, b):
    width = np.dtype(np.asarray(a).dtype).itemsize * 8
    return np.right_shift(a, np.asarray(b) & (width - 1))


# -- memory ----------------------------------------------------------------
def _outside(idx: np.ndarray, size: int) -> bool:
    """Is an index of ``idx`` outside ``[0, size)``?  One reduction: seen
    as unsigned, a negative index wraps above any size."""
    wide = idx.view(np.uint64) if idx.dtype == np.int64 else idx.astype(np.uint64)
    return int(wide.max()) >= size


def _select(mn: int, m: np.ndarray, size: int, what: str, idx: Any, *others):
    """``idx`` and ``others`` (per-lane arrays or uniform scalars) of the
    active lanes, in lane order, the indices bounds-checked."""
    if not _per_lane(idx):
        idx = np.broadcast_to(idx, m.shape)
    picked = (idx, *others)
    if mn != m.shape[0]:
        picked = tuple(v[m] if _per_lane(v) else v for v in picked)
        idx = picked[0]
    if mn and _outside(idx, size):
        off = int(idx[np.argmax((idx < 0) | (idx >= size))])
        raise CLCRuntimeError(f"out-of-bounds {what}: index {off} not in [0, {size})")
    return picked


def _load_index(mn: int, m: np.ndarray, size: int, what: str, idx: Any) -> np.ndarray:
    """An index every lane can load from: the active lanes' own,
    bounds-checked; element 0 for the others."""
    safe = idx if mn == m.shape[0] and _per_lane(idx) else idx * m  # 0 on the other lanes
    if mn and _outside(safe, size):
        _select(mn, m, size, what, idx)  # raises, naming the first offending lane
    return safe


def load_global(mn, m, buf: np.ndarray, idx):
    return buf[_load_index(mn, m, buf.shape[0], "global load", idx)]


def store_global(mn, m, buf: np.ndarray, idx, val):
    idx, val = _select(mn, m, buf.shape[0], "global store", idx, val)
    buf[idx] = val


def load_local(ctx, mn, m, arr: np.ndarray, idx):
    return arr[ctx.group_ordinal, _load_index(mn, m, arr.shape[1], "local load", idx)]


def store_local(ctx, mn, m, arr: np.ndarray, idx, val):
    idx, val, rows = _select(mn, m, arr.shape[1], "local store", idx, val, ctx.group_ordinal)
    arr[rows, idx] = val


def private_array(ctx, dtype: str, size: int) -> np.ndarray:
    return np.zeros((ctx.lanes, size), dtype=np.dtype(dtype))


def load_private(ctx, mn, m, arr: np.ndarray, idx):
    return arr[ctx.lane_ids, _load_index(mn, m, arr.shape[1], "private load", idx)]


def store_private(ctx, mn, m, arr: np.ndarray, idx, val):
    idx, val, rows = _select(mn, m, arr.shape[1], "private store", idx, val, ctx.lane_ids)
    arr[rows, idx] = val


# -- atomics -----------------------------------------------------------------
_ATOMIC_UFUNC = {
    "atomic_add": np.add,
    "atomic_sub": np.subtract,
    "atomic_inc": np.add,
    "atomic_dec": np.subtract,
    "atomic_min": np.minimum,
    "atomic_max": np.maximum,
    "atomic_and": np.bitwise_and,
    "atomic_or": np.bitwise_or,
    "atomic_xor": np.bitwise_xor,
}


def atomic(ctx, mn, m, fetch: bool, op: str, kind: str, arr: np.ndarray, idx, *vals):
    """Vectorised atomics on global/local/private storage, applied in
    lane order.

    With ``fetch`` returns the value observed *before this dispatch's
    updates* (OpenCL leaves intra-dispatch ordering undefined; the
    reference interpreter provides exact serialised semantics for
    differential checks on end state); without, the caller discards the
    result and the full-width gather is skipped.
    """
    rows = None if kind == "global" else ctx.group_ordinal if kind == "local" else ctx.lane_ids
    size = arr.shape[0 if rows is None else 1]
    everyone = mn == m.shape[0]
    sel, *vals = _select(mn, m, size, op, idx, *vals)
    old = None
    if fetch:
        safe = sel if everyone else idx * m
        old = arr[safe] if rows is None else arr[rows, safe]
    at = sel if rows is None else (rows if everyone else rows[m], sel)
    if op in _ATOMIC_UFUNC:
        _ATOMIC_UFUNC[op].at(arr, at, vals[0] if vals else arr.dtype.type(1))
    elif op == "atomic_xchg":
        arr[at] = vals[0]
    elif op == "atomic_cmpxchg":
        cur = arr[at]
        arr[at] = np.where(cur == vals[0], vals[1], cur)
    else:  # pragma: no cover - sema rejects unknown atomics
        raise CLCRuntimeError(f"unknown atomic {op!r}")
    return old


def barrier(ctx, m) -> None:
    """Work-group barrier.  Lockstep vector execution satisfies barrier
    semantics automatically, but *divergent* barriers (not all work-items
    of a group reach it) are undefined behaviour in OpenCL — we detect and
    report them."""
    if ctx.group_size <= 1:
        return
    per_group = m.reshape(-1, ctx.group_size)
    group_any = per_group.any(axis=1)
    group_all = per_group.all(axis=1)
    if np.any(group_any & ~group_all):
        raise CLCRuntimeError(
            "divergent barrier: not all work-items of a group reached barrier()"
        )
