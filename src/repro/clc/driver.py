"""Compiler driver: source + options -> compiled kernels.

Also the home of the *program binary* format: a built
:class:`CompiledProgram` round-trips through
:func:`serialize_program` / :func:`deserialize_program`, carrying the
generated Python module plus the kernels' parameter symbols — enough to
re-create dispatchable kernels without running the compiler front-end
(preprocess / parse / analyze / codegen).  This is what the daemon
build cache ships between cluster nodes and what
``clGetProgramInfo(CL_PROGRAM_BINARIES)`` hands to applications.
"""

from __future__ import annotations

import copy
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.clc.access import program_summaries
from repro.clc.codegen import compile_module
from repro.clc.errors import CLCompileError
from repro.clc.parser import parse
from repro.clc.preprocess import preprocess
from repro.clc.sema import AnalyzedProgram, FunctionInfo, Symbol, analyze
from repro.clc.types import VOID, PointerType, ScalarType

#: Macros every OpenCL C translation unit sees.
PREDEFINED_MACROS = {
    "__OPENCL_VERSION__": "110",
    "CL_VERSION_1_0": "100",
    "CL_VERSION_1_1": "110",
    "CLK_LOCAL_MEM_FENCE": "1",
    "CLK_GLOBAL_MEM_FENCE": "2",
    "M_PI": "3.141592653589793",
    "M_PI_F": "3.1415927f",
    "M_E_F": "2.7182817f",
    "FLT_MAX": "3.402823466e+38f",
    "FLT_MIN": "1.175494351e-38f",
    "FLT_EPSILON": "1.192092896e-07f",
    "MAXFLOAT": "3.402823466e+38f",
    "INT_MAX": "2147483647",
    "INT_MIN": "(-2147483647 - 1)",
    "UINT_MAX": "4294967295u",
}


@dataclass
class CompiledKernel:
    """One ``__kernel`` function ready for dispatch."""

    name: str
    info: FunctionInfo
    vector_fn: Callable
    program: "CompiledProgram" = field(repr=False, default=None)

    @property
    def num_args(self) -> int:
        return len(self.info.param_symbols)

    @property
    def arg_kinds(self):
        return self.info.arg_kinds

    @property
    def access(self) -> Dict[int, tuple]:
        """The kernel's access summaries (:mod:`repro.clc.access`)."""
        return self.program.summaries().get(self.name, {})


@dataclass
class CompiledProgram:
    """A built OpenCL C program."""

    source: str
    options: str
    analyzed: AnalyzedProgram = field(repr=False, default=None)
    kernels: Dict[str, CompiledKernel] = field(default_factory=dict)
    python_source: str = field(repr=False, default="")
    build_log: str = ""
    _summaries: Optional[dict] = field(repr=False, default=None)

    def summaries(self) -> Dict[str, Dict[int, tuple]]:
        """Every kernel's access summaries, derived once: from the
        analysed AST, or — for a program rebuilt from a binary, which
        carries none — from a front-end pass over its source."""
        if self._summaries is None:
            analyzed = self.analyzed or analyze(parse(_expand(self.source, self.options)))
            self._summaries = program_summaries(analyzed)
        return self._summaries

    def kernel(self, name: str) -> CompiledKernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise CLCompileError(f"no kernel named {name!r} in program") from None


def _expand(source: str, options: str) -> str:
    """``source`` preprocessed under ``options`` and the predefined macros."""
    prelude_defs = "".join(
        f"#define {name} {value}\n" for name, value in PREDEFINED_MACROS.items()
    )
    # Prepend predefined macros, then compensate line numbers by stripping
    # the prelude's newlines after preprocessing (the preprocessor keeps
    # line structure stable).
    expanded = preprocess(prelude_defs + source, options)
    return "\n".join(expanded.split("\n")[len(PREDEFINED_MACROS) :])


def compile_program(source: str, options: str = "") -> CompiledProgram:
    """Compile OpenCL C source; raises :class:`CLCompileError` on failure.

    The OpenCL runtime layer converts failures into
    ``CL_BUILD_PROGRAM_FAILURE`` with the exception text as the build log.
    """
    program_ast = parse(_expand(source, options))
    analyzed = analyze(program_ast)
    namespace = compile_module(analyzed)
    program = CompiledProgram(
        source=source,
        options=options,
        analyzed=analyzed,
        python_source=namespace["__clc_source__"],
        build_log="",
    )
    for name, info in analyzed.kernels.items():
        program.kernels[name] = CompiledKernel(
            name=name,
            info=info,
            vector_fn=namespace[f"_fn_{name}"],
            program=program,
        )
    return program


# ----------------------------------------------------------------------
# content addressing + binary round-trip
# ----------------------------------------------------------------------
#: Format tag of the serialized-program container; bumped whenever the
#: payload layout *or the generated module's contract with ``vecrt``*
#: changes, so stale binaries are refused at load instead of failing at
#: their first launch.  (``CLCB2``: block-charged modules, kernels take
#: ``(_ctx, _m, _mn, ...)``.)
BINARY_MAGIC = "CLCB2"


def program_digest(source: str) -> str:
    """Content address of a translation unit: ``sha256(source)`` hex.

    The compiler is deterministic, so ``(program_digest(source),
    options)`` fully determines the build outcome — the key of every
    level of the build cache."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def kernel_arg_metadata(program: CompiledProgram) -> Dict[str, Dict[str, object]]:
    """Argument metadata for every kernel of a built program.

    This is the payload of ``BuildProgramResponse.kernels`` *and* what a
    client resolves locally on a build-cache hit: ``num_args`` /
    ``arg_kinds`` / ``arg_types`` per kernel, plus the indexes of
    writable global-buffer arguments (coherence planning)."""
    out: Dict[str, Dict[str, object]] = {}
    for name, compiled in program.kernels.items():
        writable = [
            i
            for i, sym in enumerate(compiled.info.param_symbols)
            if isinstance(sym.type, PointerType)
            and sym.type.address_space == "global"
            and not sym.is_const
        ]
        out[name] = {
            "num_args": compiled.num_args,
            "arg_kinds": list(compiled.arg_kinds),
            "arg_types": [str(sym.type) for sym in compiled.info.param_symbols],
            "writable_buffer_args": writable,
        }
    return out


#: ``(digest, options)`` -> what :func:`front_end_outcome` resolved in
#: this process, least recently used first; bounded so a process that
#: builds generated sources forever stays flat.
_FRONT_END_OUTCOMES: "OrderedDict[Tuple[str, str], Tuple[Optional[dict], str]]" = OrderedDict()
_FRONT_END_OUTCOMES_MAX = 256


def front_end_outcome(
    source: str, options: str = "", digest: Optional[str] = None
) -> Tuple[Optional[Dict[str, Dict[str, object]]], str]:
    """What a *client* needs of a build: ``(kernel_arg_metadata, "")``
    when ``source`` compiles, ``(None, build log)`` when it does not.
    Each kernel's entry also holds its access summaries (``access``:
    :mod:`repro.clc.access`), which no reply carries: the client
    derives them here, from its own front-end result.

    The compiler is deterministic, so the whole front-end (code
    generation included: it can still reject a program) runs once per
    ``(digest, options)`` per process, however many client drivers
    build the source.  The metadata is the caller's own deep copy.
    ``digest`` is ``program_digest(source)`` if the caller has it."""
    key = (digest or program_digest(source), options)
    outcome = _FRONT_END_OUTCOMES.get(key)
    if outcome is None:
        try:
            compiled = compile_program(source, options)
            meta = kernel_arg_metadata(compiled)
            for name, access in compiled.summaries().items():
                meta[name]["access"] = access
            outcome = (meta, "")
        except CLCompileError as exc:
            outcome = (None, str(exc))
        _FRONT_END_OUTCOMES[key] = outcome
        if len(_FRONT_END_OUTCOMES) > _FRONT_END_OUTCOMES_MAX:
            _FRONT_END_OUTCOMES.popitem(last=False)
    else:
        _FRONT_END_OUTCOMES.move_to_end(key)
    return copy.deepcopy(outcome[0]), outcome[1]


def _encode_type(t: object) -> Dict[str, object]:
    if isinstance(t, PointerType):
        return {
            "kind": "pointer",
            "address_space": t.address_space,
            "pointee": _encode_type(t.pointee),
        }
    if isinstance(t, ScalarType):
        return {
            "kind": "scalar",
            "name": t.name,
            "dtype": t.dtype,
            "rank": t.rank,
            "is_float": t.is_float,
            "signed": t.signed,
        }
    return {"kind": "void"}


def _decode_type(doc: Dict[str, object]) -> object:
    kind = doc.get("kind")
    if kind == "pointer":
        return PointerType(_decode_type(doc["pointee"]), str(doc["address_space"]))
    if kind == "scalar":
        return ScalarType(
            str(doc["name"]),
            str(doc["dtype"]),
            int(doc["rank"]),
            bool(doc["is_float"]),
            bool(doc["signed"]),
        )
    return VOID


def _encode_symbol(sym: Symbol) -> Dict[str, object]:
    return {
        "name": sym.name,
        "slot": sym.slot,
        "kind": sym.kind,
        "address_space": sym.address_space,
        "is_const": sym.is_const,
        "array_size": sym.array_size,
        "type": _encode_type(sym.type),
    }


def _decode_symbol(doc: Dict[str, object]) -> Symbol:
    return Symbol(
        name=str(doc["name"]),
        slot=str(doc["slot"]),
        type=_decode_type(doc["type"]),
        kind=str(doc["kind"]),
        address_space=str(doc["address_space"]),
        is_const=bool(doc["is_const"]),
        array_size=doc["array_size"],
    )


def serialize_program(program: CompiledProgram) -> bytes:
    """A built program as a self-contained binary blob.

    Carries the original source (the content address), build options,
    the *generated Python module* and the per-kernel parameter symbols —
    everything :func:`deserialize_program` needs to rebuild dispatchable
    kernels without the compiler front-end.  The blob is deterministic
    (sorted keys), so identical builds serialize identically on every
    daemon."""
    kernels = [
        {
            "name": kernel.name,
            "params": [_encode_symbol(sym) for sym in kernel.info.param_symbols],
        }
        for _, kernel in sorted(program.kernels.items())
    ]
    doc = {
        "magic": BINARY_MAGIC,
        "source": program.source,
        "options": program.options,
        "python_source": program.python_source,
        "build_log": program.build_log,
        "kernels": kernels,
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def deserialize_program(blob: bytes) -> CompiledProgram:
    """Rebuild a :class:`CompiledProgram` from :func:`serialize_program`
    output, skipping the compiler front-end entirely: the generated
    Python module is ``exec``'d (it is self-contained, see
    :data:`repro.clc.codegen.MODULE_PRELUDE`) and the kernels are
    re-assembled from the serialized parameter symbols.

    The rebuilt kernels carry no AST (``info.node is None`` and
    ``analyzed is None``), so they dispatch through the vector backend
    only — the interpreter backend needs the source and can recompile
    from ``program.source`` if ever required.  Raises
    :class:`CLCompileError` on a malformed or wrong-format blob."""
    try:
        doc = json.loads(bytes(blob).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CLCompileError(f"invalid program binary: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("magic") != BINARY_MAGIC:
        raise CLCompileError("invalid program binary: bad magic")
    try:
        return _assemble(doc)
    except CLCompileError:
        raise
    except Exception as exc:  # a blob is outside input: whatever it breaks is the blob's fault
        raise CLCompileError(f"invalid program binary: {type(exc).__name__}: {exc}") from exc


def _assemble(doc: Dict[str, object]) -> CompiledProgram:
    """The program a decoded, right-magic binary document describes."""
    if not isinstance(doc["source"], str) or not isinstance(doc["kernels"], list):
        raise CLCompileError("invalid program binary: source must be text and kernels a list")
    namespace: Dict[str, object] = {}
    code = compile(doc["python_source"], "<clc-binary>", "exec")
    exec(code, namespace)
    program = CompiledProgram(
        source=doc["source"],
        options=doc.get("options", ""),
        analyzed=None,
        python_source=doc["python_source"],
        build_log=doc.get("build_log", ""),
    )
    for entry in doc["kernels"]:
        name = str(entry["name"])
        params = [_decode_symbol(p) for p in entry["params"]]
        info = FunctionInfo(
            name=name,
            node=None,
            return_type=VOID,
            param_symbols=params,
            is_kernel=True,
        )
        program.kernels[name] = CompiledKernel(
            name=name,
            info=info,
            vector_fn=namespace[f"_fn_{name}"],
            program=program,
        )
    return program
