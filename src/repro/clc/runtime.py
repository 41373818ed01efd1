"""NDRange dispatch: argument binding, work-item IDs, chunking, accounting.

The vector backend executes all work-items of a *chunk* (a whole number of
work-groups) in lockstep as NumPy lanes.  The execution context provides
work-item ID arrays, local-memory allocation and the op accumulator that
feeds the device cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clc.errors import CLCRuntimeError
from repro.clc.types import PointerType, ScalarType


@dataclass(frozen=True)
class NDRange:
    """A validated kernel index space (OpenCL 1.1 rules: the local size
    must divide the global size in every dimension)."""

    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]
    global_offset: Tuple[int, ...]

    @staticmethod
    def create(
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
        global_offset: Optional[Sequence[int]] = None,
    ) -> "NDRange":
        gs = tuple(int(g) for g in global_size)
        if not 1 <= len(gs) <= 3:
            raise CLCRuntimeError(f"work dimensions must be 1..3, got {len(gs)}")
        if any(g <= 0 for g in gs):
            raise CLCRuntimeError(f"global size must be positive, got {gs}")
        if local_size is None:
            ls = tuple(_default_local(g, i == 0) for i, g in enumerate(gs))
        else:
            ls = tuple(int(v) for v in local_size)
            if len(ls) != len(gs):
                raise CLCRuntimeError("local size dimensionality mismatch")
            if any(v <= 0 for v in ls):
                raise CLCRuntimeError(f"local size must be positive, got {ls}")
            if any(g % v for g, v in zip(gs, ls)):
                raise CLCRuntimeError(
                    f"local size {ls} does not divide global size {gs}"
                )
        off = tuple(int(v) for v in (global_offset or (0,) * len(gs)))
        if len(off) != len(gs):
            raise CLCRuntimeError("global offset dimensionality mismatch")
        return NDRange(gs, ls, off)

    # Derived once per NDRange (the instance is immutable, and launches of
    # one shape share it: see _nd_range).
    @cached_property
    def work_dim(self) -> int:
        return len(self.global_size)

    @cached_property
    def total_work_items(self) -> int:
        return math.prod(self.global_size)

    @cached_property
    def group_size(self) -> int:
        return math.prod(self.local_size)

    @cached_property
    def num_groups(self) -> Tuple[int, ...]:
        return tuple(g // l for g, l in zip(self.global_size, self.local_size))

    @cached_property
    def total_groups(self) -> int:
        return math.prod(self.num_groups)


def _default_local(g: int, first_dim: bool) -> int:
    """Pick a local size: the largest divisor of ``g`` up to 256 for the
    first dimension (1 for the rest), mirroring a typical runtime choice."""
    if not first_dim:
        return 1
    return next(cand for cand in range(min(g, 256), 0, -1) if g % cand == 0)


#: Validated NDRanges of the launch shapes seen last (a program launches
#: few shapes; the bound only caps a caller that sweeps them).
_created = lru_cache(maxsize=256)(NDRange.create)


def _nd_range(global_size, local_size, global_offset) -> NDRange:
    """:meth:`NDRange.create`, memoised per launch shape: a launch of a
    shape seen before skips the validation it already passed (and finds
    its derived sizes computed).  Anything that is not a sequence of
    hashable values goes to ``create`` as it is, so every error reads as
    it always did."""
    try:
        key = (
            tuple(global_size),
            None if local_size is None else tuple(local_size),
            None if global_offset is None else tuple(global_offset),
        )
        hash(key)
    except TypeError:
        return NDRange.create(global_size, local_size, global_offset)
    return _created(*key)


class LocalMemory:
    """Placeholder argument for ``__local`` kernel parameters
    (``clSetKernelArg`` with a size and NULL pointer)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise CLCRuntimeError(f"local memory size must be positive, got {nbytes}")
        self.nbytes = int(nbytes)


@dataclass
class ExecutionStats:
    """Work accounting from one kernel dispatch (drives the cost model)."""

    ops: float = 0.0
    work_items: int = 0
    chunks: int = 0


class ExecContext:
    """Per-chunk execution state handed to generated vector code."""

    def __init__(self, nd: NDRange, group_start: int, group_count: int) -> None:
        self.nd = nd
        self.group_size = nd.group_size
        self.lanes = group_count * nd.group_size
        self.ops = 0.0
        self._group_start = group_start
        self._group_count = group_count
        # Work-item ID vectors, (work-item function, dimension) -> one
        # entry per lane, built on first use like ``lane_ids`` and
        # ``group_ordinal``: a kernel that reads get_global_id(0) once
        # builds one table, not nine.
        self._id_tables: Dict[Tuple[str, int], np.ndarray] = {}
        self._local_arrays: Dict[str, np.ndarray] = {}
        # Lane compaction (vecrt.compact): the chunk lanes still being
        # executed, as indices, or None for all of them; and the ID
        # vectors already gathered for that selection.
        self._selection: Optional[np.ndarray] = None
        self._selected_ids: Dict[Tuple[str, int], np.ndarray] = {}

    @cached_property
    def lane_ids(self) -> np.ndarray:
        return np.arange(self.lanes)

    @cached_property
    def group_ordinal(self) -> np.ndarray:
        return self.lane_ids // self.group_size

    def _id_table(self, kind: str, d: int) -> np.ndarray:
        table = self._id_tables.get((kind, d))
        if table is None and kind == "global" and self.nd.work_dim == 1:
            # One dimension: the global ID is the linear index plus the offset.
            first = self._group_start * self.group_size + self.nd.global_offset[0]
            table = self._id_tables[kind, d] = np.arange(first, first + self.lanes, dtype=np.uint64)
        elif table is None:
            # Linear work-item index -> coordinate d of its group and of
            # itself within the group.
            nd = self.nd
            lin = self.lane_ids + self._group_start * nd.group_size
            group, local = lin // nd.group_size, lin % nd.group_size
            for earlier in range(d):
                group, local = group // nd.num_groups[earlier], local // nd.local_size[earlier]
            group, local = group % nd.num_groups[d], local % nd.local_size[d]
            if kind == "global":
                table = group * nd.local_size[d] + local + nd.global_offset[d]
            else:
                table = group if kind == "group" else local
            table = self._id_tables[kind, d] = table.astype(np.uint64)
        return table

    # -- lane compaction -----------------------------------------------------
    def narrow(self, ix: np.ndarray) -> Optional[np.ndarray]:
        """Keep only lanes ``ix`` of the current selection; returns the
        previous selection for :meth:`widen`."""
        previous = self._selection
        self._selection = ix if previous is None else previous[ix]
        self._selected_ids = {}
        return previous

    def widen(self, previous: Optional[np.ndarray]) -> None:
        """Back to the selection :meth:`narrow` returned."""
        self._selection = previous
        self._selected_ids = {}

    # -- work-item functions -------------------------------------------------
    def _dim_ok(self, d: int) -> bool:
        return 0 <= d < self.nd.work_dim

    def _ids(self, kind: str, d: int) -> np.ndarray:
        if not self._dim_ok(d):
            return np.uint64(0)
        if self._selection is None:
            return self._id_table(kind, d)
        ids = self._selected_ids.get((kind, d))
        if ids is None:
            ids = self._selected_ids[kind, d] = self._id_table(kind, d)[self._selection]
        return ids

    def get_work_dim(self) -> np.uint32:
        return np.uint32(self.nd.work_dim)

    def get_global_id(self, d: int) -> np.ndarray:
        return self._ids("global", d)

    def get_local_id(self, d: int) -> np.ndarray:
        return self._ids("local", d)

    def get_group_id(self, d: int) -> np.ndarray:
        return self._ids("group", d)

    def get_global_size(self, d: int) -> np.uint64:
        if not self._dim_ok(d):
            return np.uint64(1)
        return np.uint64(self.nd.global_size[d])

    def get_local_size(self, d: int) -> np.uint64:
        if not self._dim_ok(d):
            return np.uint64(1)
        return np.uint64(self.nd.local_size[d])

    def get_num_groups(self, d: int) -> np.uint64:
        if not self._dim_ok(d):
            return np.uint64(1)
        return np.uint64(self.nd.num_groups[d])

    def get_global_offset(self, d: int) -> np.uint64:
        if not self._dim_ok(d):
            return np.uint64(0)
        return np.uint64(self.nd.global_offset[d])

    # -- local memory -------------------------------------------------------
    def local_array(self, slot: str, dtype: str, size: int) -> np.ndarray:
        arr = self._local_arrays.get(slot)
        if arr is None:
            arr = np.zeros((self._group_count, size), dtype=np.dtype(dtype))
            self._local_arrays[slot] = arr
        return arr

    def local_arg_array(self, dtype: str, elems: int) -> np.ndarray:
        return np.zeros((self._group_count, elems), dtype=np.dtype(dtype))


def bind_args(kernel_info, args: Sequence[object]) -> List[object]:
    """Validate and convert user-supplied kernel arguments.

    Buffers must be 1-D NumPy arrays with the exact pointee dtype; scalars
    are converted to the declared NumPy scalar type; ``__local`` pointer
    parameters take :class:`LocalMemory` placeholders.
    """
    params = kernel_info.param_symbols
    if len(args) != len(params):
        raise CLCRuntimeError(
            f"kernel {kernel_info.name!r} expects {len(params)} argument(s), got {len(args)}"
        )
    bound: List[object] = []
    for i, (arg, sym) in enumerate(zip(args, params)):
        if isinstance(sym.type, PointerType):
            if sym.type.address_space == "local":
                if not isinstance(arg, LocalMemory):
                    raise CLCRuntimeError(
                        f"argument {i} of {kernel_info.name!r} is __local; pass LocalMemory(nbytes)"
                    )
                bound.append(arg)
                continue
            if not isinstance(arg, np.ndarray) or arg.ndim != 1:
                raise CLCRuntimeError(
                    f"argument {i} of {kernel_info.name!r} must be a 1-D ndarray"
                )
            want = sym.type.pointee.np_dtype
            if arg.dtype != want:
                raise CLCRuntimeError(
                    f"argument {i} of {kernel_info.name!r}: dtype {arg.dtype} != {want}"
                )
            bound.append(arg)
        else:
            scalar_t: ScalarType = sym.type
            try:
                bound.append(scalar_t.np_dtype.type(arg))
            except (TypeError, ValueError) as exc:
                raise CLCRuntimeError(
                    f"argument {i} of {kernel_info.name!r}: cannot convert {arg!r} to {scalar_t}"
                ) from exc
    return bound


def execute_kernel(
    kernel,
    global_size: Sequence[int],
    args: Sequence[object],
    local_size: Optional[Sequence[int]] = None,
    global_offset: Optional[Sequence[int]] = None,
    backend: str = "vector",
    max_lanes: int = 1 << 16,
) -> ExecutionStats:
    """Execute a :class:`~repro.clc.driver.CompiledKernel` over an NDRange.

    ``backend`` is ``"vector"`` (production) or ``"interp"`` (reference).
    Returns the :class:`ExecutionStats` consumed by the device cost model.
    """
    nd = _nd_range(global_size, local_size, global_offset)
    bound = bind_args(kernel.info, args)
    if backend == "interp":
        from repro.clc.interp import execute_interp

        return execute_interp(kernel, nd, bound)
    if backend != "vector":
        raise CLCRuntimeError(f"unknown backend {backend!r}")

    stats = ExecutionStats()
    groups_per_chunk = max(1, max_lanes // nd.group_size)
    total_groups = nd.total_groups
    start = 0
    local = [
        (i, sym, value)
        for i, (sym, value) in enumerate(zip(kernel.info.param_symbols, bound))
        if isinstance(value, LocalMemory)
    ]
    with np.errstate(all="ignore"):
        while start < total_groups:
            count = min(groups_per_chunk, total_groups - start)
            ctx = ExecContext(nd, start, count)
            chunk_args = bound
            if local:  # each chunk gets its own work-groups' __local arrays
                chunk_args = list(bound)
                for i, sym, value in local:
                    elems = value.nbytes // sym.type.pointee.size
                    if elems <= 0:
                        raise CLCRuntimeError(
                            f"local argument {sym.name!r}: {value.nbytes} bytes is less "
                            f"than one {sym.type.pointee} element"
                        )
                    chunk_args[i] = ctx.local_arg_array(sym.type.pointee.dtype, elems)
            mask = np.ones(ctx.lanes, dtype=bool)
            kernel.vector_fn(ctx, mask, ctx.lanes, *chunk_args)
            stats.ops += ctx.ops
            stats.work_items += ctx.lanes
            stats.chunks += 1
            start += count
    return stats
