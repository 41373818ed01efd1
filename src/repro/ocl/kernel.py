"""Kernel objects: argument binding and dispatch preparation."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.clc import LocalMemory
from repro.clc.access import Launch, covers
from repro.clc.driver import CompiledKernel
from repro.clc.types import PointerType
from repro.ocl.constants import ErrorCode
from repro.ocl.errors import CLError, require
from repro.ocl.memory import Buffer
from repro.ocl.program import Program

_UNSET = object()


class Kernel:
    """``clCreateKernel`` result."""

    def __init__(self, program: Program, name: str) -> None:
        compiled = program.require_built()
        if name not in compiled.kernels:
            raise CLError(ErrorCode.CL_INVALID_KERNEL_NAME, f"no kernel {name!r}")
        self.program = program
        self.name = name
        self.compiled: CompiledKernel = compiled.kernels[name]
        self.args: List[object] = [_UNSET] * self.compiled.num_args
        self.refcount = 1

    @property
    def context(self):
        return self.program.context

    @property
    def num_args(self) -> int:
        return self.compiled.num_args

    def set_arg(self, index: int, value: object) -> None:
        """``clSetKernelArg``: a :class:`Buffer`, a scalar, or
        :class:`LocalMemory` for ``__local`` parameters."""
        require(
            0 <= index < self.num_args,
            ErrorCode.CL_INVALID_ARG_INDEX,
            f"kernel {self.name!r} has {self.num_args} args, got index {index}",
        )
        kind = self.compiled.arg_kinds[index]
        if kind == "buffer":
            if not isinstance(value, Buffer):
                raise CLError(
                    ErrorCode.CL_INVALID_ARG_VALUE,
                    f"argument {index} of {self.name!r} must be a Buffer",
                )
            if value.context is not self.context:
                raise CLError(
                    ErrorCode.CL_INVALID_MEM_OBJECT,
                    "buffer belongs to a different context",
                )
        elif kind == "local":
            if not isinstance(value, LocalMemory):
                raise CLError(
                    ErrorCode.CL_INVALID_ARG_VALUE,
                    f"argument {index} of {self.name!r} is __local; pass LocalMemory(nbytes)",
                )
        else:  # value
            if isinstance(value, (Buffer, LocalMemory)):
                raise CLError(
                    ErrorCode.CL_INVALID_ARG_VALUE,
                    f"argument {index} of {self.name!r} is a scalar",
                )
            if not isinstance(value, (int, float, bool, np.integer, np.floating, np.bool_)):
                raise CLError(
                    ErrorCode.CL_INVALID_ARG_VALUE,
                    f"argument {index} of {self.name!r}: unsupported value {value!r}",
                )
        self.args[index] = value

    def bound_args(self, global_size, global_offset, local_size) -> List[object]:
        """Arguments ready for the clc runtime (buffers become typed views
        of one storage each: a written buffer's is made private first,
        without its old bytes when the launch of ``global_size`` work
        items overwrites them all)."""
        for buffer in self.written_buffers():
            if buffer.lent:
                buffer.own(not self.overwrites(buffer, Launch(global_size, global_offset, local_size, self.args)))
        out: List[object] = []
        for i, (value, sym) in enumerate(zip(self.args, self.compiled.info.param_symbols)):
            if value is _UNSET:
                raise CLError(
                    ErrorCode.CL_INVALID_KERNEL_ARGS,
                    f"argument {i} ({sym.name!r}) of {self.name!r} is not set",
                )
            if isinstance(value, Buffer):
                out.append(value.typed_view(sym.type.pointee.np_dtype))
            else:
                out.append(value)
        return out

    def overwrites(self, buffer: Buffer, launch: Launch) -> bool:
        """Whether ``launch`` writes every byte of ``buffer`` and reads
        none: no parameter bound to it has a read summary, and one has a
        cover of its size (:func:`repro.clc.access.covers`)."""
        access = self.compiled.access
        bound = [access.get(i) for i, value in enumerate(self.args) if value is buffer]
        return all(a is not None and a[0] is None for a in bound) and any(
            covers(a[2], buffer.size, launch) for a in bound
        )

    def buffer_args(self) -> List[Buffer]:
        return [a for a in self.args if isinstance(a, Buffer)]

    def written_buffers(self) -> List[Buffer]:
        """The buffers bound to writable (non-``const``) global pointers."""
        return [
            value
            for value, sym in zip(self.args, self.compiled.info.param_symbols)
            if isinstance(value, Buffer)
            and getattr(sym.type, "address_space", None) == "global"
            and not sym.is_const
        ]

    def retain(self) -> None:
        self.refcount += 1

    def release(self) -> None:
        self.refcount -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name!r} args={self.num_args}>"
