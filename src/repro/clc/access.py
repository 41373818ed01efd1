"""Access summaries: which bytes of each ``__global`` buffer a kernel may
read and may write, as a function of its launch.

For every kernel and every ``__global`` pointer parameter the pass
derives a *read* and a *write* summary (HDArray's array sections).  A
summary is the list of the parameter's element indexes when each is
affine in the work-item ids,

    Σ cᵢ·idᵢ + k    with cᵢ and k uniform (literals, scalar arguments
                    never assigned, size queries),

and :data:`WHOLE` otherwise: a data-dependent index (OSEM's scatter),
``/`` or ``%`` (the smoke gather), a narrowing or float conversion, a
variable assigned more than once (a loop counter), or a pointer that
escapes — passed to a call, its element's address taken, or bound to a
pointer variable.  :func:`section` evaluates a summary for one launch:
each index ranges over the NDRange box, the hull of those ranges is
clipped to the buffer (every access the kernel makes is bounds-checked,
so nothing outside the buffer is ever touched), and the result is a
sound over-approximation of the bytes touched.  Guards are ignored: a
lane a guard stops only makes the summary looser.

A write summary is a *may*-write.  A parameter also gets a *cover*
when the kernel provably writes every byte of the buffer: a top-level
store ``p[i] = …`` that every lane reaches (the early-return guards
before it are provably false on the launch's box, and nothing else
returns) whose index enumerates the buffer densely.  With an empty
read summary the old bytes are then dead, and a lent storage need not
be copied before the kernel runs (:func:`covers`).

The pass runs once per build on the analysed AST; evaluating a summary
at launch is a few integer operations.  Summaries are plain tuples, so
they deep-copy with the kernel metadata that carries them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.clc import cast as A
from repro.clc.sema import AnalyzedProgram, FunctionInfo
from repro.clc.types import PointerType, ScalarType

#: The summary of a parameter whose accesses the pass cannot bound.
WHOLE = "whole"

#: Size queries that are uniform across a launch.
_QUERIES = ("get_global_size", "get_local_size", "get_num_groups", "get_global_offset")

#: Work-item ids an affine index may use, and their term kind.
_IDS = {"get_global_id": "gid", "get_local_id": "lid", "get_group_id": "grp"}

#: Index arithmetic is exact while no 32-bit intermediate can wrap.
_INT_LIMIT = 1 << 31

#: Each comparison and its negation.
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


class _NotAffine(Exception):
    """An index the pass cannot express as an affine form."""


# ----------------------------------------------------------------------
# affine forms: (constant, ((kind, dim, coefficient), ...)); a constant or
# coefficient is an int or a uniform expression tuple
# ----------------------------------------------------------------------
def _uadd(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if a == 0:
        return b
    if b == 0:
        return a
    return ("+", a, b)


def _umul(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    if a == 0 or b == 0:
        return 0
    if a == 1:
        return b
    if b == 1:
        return a
    return ("*", a, b)


def _affine_add(x, y, sign: int = 1):
    terms = dict(x[1])
    for key, coeff in y[1]:
        terms[key] = _uadd(terms.get(key, 0), _umul(sign, coeff))
    return (_uadd(x[0], _umul(sign, y[0])), tuple(sorted((k, c) for k, c in terms.items() if c != 0)))


def _affine_scale(x, factor):
    return (_umul(factor, x[0]), tuple((k, _umul(factor, c)) for k, c in x[1]))


class _Kernel:
    """The pass over one kernel's body."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.params = {sym.slot: i for i, sym in enumerate(info.param_symbols)}
        self.defs: Dict[str, int] = {}
        self.inits: Dict[str, A.Expr] = {}
        self.reads: Dict[int, list] = {}
        self.writes: Dict[int, list] = {}
        self.escaped: set = set()
        self._count_definitions(info.node.body)

    # -- definitions -------------------------------------------------
    def _count_definitions(self, node) -> None:
        for child in _walk(node):
            if isinstance(child, A.VarDecl):
                slot = child.symbol.slot
                self.defs[slot] = self.defs.get(slot, 0) + (child.init is not None)
                if child.init is not None:
                    self.inits[slot] = child.init
            elif isinstance(child, A.Assign) and isinstance(child.target, A.VarRef):
                slot = child.target.symbol.slot
                self.defs[slot] = self.defs.get(slot, 0) + 2
            elif isinstance(child, (A.UnaryOp, A.PostfixOp)) and child.op in ("++", "--"):
                if isinstance(child.operand, A.VarRef):
                    slot = child.operand.symbol.slot
                    self.defs[slot] = self.defs.get(slot, 0) + 2

    # -- affine forms ------------------------------------------------
    def affine(self, e: A.Expr):
        if isinstance(e, A.IntLiteral):
            return (int(e.value), ())
        if isinstance(e, (A.Cast, A.ImplicitCast)):
            # Exact while the value cannot wrap: a signed target of at
            # least 32 bits (the evaluator bounds every value below
            # 2**31), or an unsigned one from an unsigned source.
            target, source = e.target_type, e.expr.type
            if not (
                isinstance(source, ScalarType)
                and source.is_integer
                and _wide_int(target)
                and (target.signed or not source.signed)
            ):
                raise _NotAffine
            return self.affine(e.expr)
        if isinstance(e, A.VarRef):
            sym = e.symbol
            if not (isinstance(sym.type, ScalarType) and sym.type.is_integer):
                raise _NotAffine
            if sym.kind == "param":
                if self.defs.get(sym.slot, 0):
                    raise _NotAffine
                return (("arg", self.params[sym.slot]), ())
            if sym.kind == "var" and self.defs.get(sym.slot) == 1 and sym.slot in self.inits:
                return self.affine(self.inits[sym.slot])
            raise _NotAffine
        if isinstance(e, (A.UnaryOp, A.BinaryOp)) and e.op == "-" and not e.type.signed:
            raise _NotAffine  # an unsigned difference wraps below zero
        if isinstance(e, A.UnaryOp) and e.op in ("-", "+"):
            x = self.affine(e.operand)
            return x if e.op == "+" else _affine_scale(x, -1)
        if isinstance(e, A.BinaryOp) and e.op in ("+", "-"):
            return _affine_add(self.affine(e.lhs), self.affine(e.rhs), 1 if e.op == "+" else -1)
        if isinstance(e, A.BinaryOp) and e.op == "*":
            x, y = self.affine(e.lhs), self.affine(e.rhs)
            if not x[1]:
                return _affine_scale(y, x[0])
            if not y[1]:
                return _affine_scale(x, y[0])
            raise _NotAffine
        if isinstance(e, A.BinaryOp) and e.op == "<<" and isinstance(_strip(e.rhs), A.IntLiteral):
            shift = int(_strip(e.rhs).value)
            if 0 <= shift < 31:
                return _affine_scale(self.affine(e.lhs), 1 << shift)
            raise _NotAffine
        if isinstance(e, A.Call) and getattr(e, "builtin", None) is not None and len(e.args) == 1:
            dim = _strip(e.args[0])
            if isinstance(dim, A.IntLiteral):
                if e.name in _IDS:
                    return (0, (((_IDS[e.name], int(dim.value)), 1),))
                if e.name in _QUERIES:
                    return (("q", e.name, int(dim.value)), ())
        raise _NotAffine

    # -- accesses ----------------------------------------------------
    def _param(self, e: A.Expr) -> Optional[int]:
        """The index of the ``__global`` pointer parameter ``e`` names."""
        if isinstance(e, A.VarRef) and e.symbol.kind == "param":
            t = e.symbol.type
            if isinstance(t, PointerType) and t.address_space == "global":
                return self.params[e.symbol.slot]
        return None

    def _record(self, table: Dict[int, list], index: A.Index) -> None:
        param = self._param(index.base)
        try:
            form = self.affine(index.index)
        except _NotAffine:
            self.escaped.add((param, table is self.writes))
            return
        table.setdefault(param, []).append((index.base.symbol.type.pointee.size, form))

    def visit(self, node, mode: str = "read") -> None:
        """Record every access under ``node``; ``mode`` is how the
        enclosing expression uses ``node`` if it is an element."""
        if isinstance(node, A.Index):
            if self._param(node.base) is not None:
                if mode in ("read", "update"):
                    self._record(self.reads, node)
                if mode in ("write", "update"):
                    self._record(self.writes, node)
            self.visit(node.index)
            return
        if isinstance(node, A.VarRef):
            param = self._param(node)
            if param is not None:  # the pointer escapes
                self.escaped.update(((param, False), (param, True)))
            return
        if isinstance(node, A.Assign):
            self.visit(node.target, "write" if node.op == "=" else "update")
            self.visit(node.value)
            return
        if isinstance(node, (A.UnaryOp, A.PostfixOp)) and node.op in ("++", "--"):
            self.visit(node.operand, "update")
            return
        if isinstance(node, A.UnaryOp) and node.op == "&":
            param = self._param(node.operand.base)
            if param is not None:
                self.escaped.update(((param, False), (param, True)))
            self.visit(node.operand.index)
            return
        for child in _children(node):
            self.visit(child)

    def summary(self, param: int, table: Dict[int, list], write: bool):
        if (param, write) in self.escaped:
            return WHOLE
        accesses = table.get(param)
        return tuple(accesses) if accesses else None

    # -- the must-write covers -----------------------------------------
    def covers(self) -> Dict[int, tuple]:
        """``{parameter: (element size, index, guards)}``: per parameter,
        a top-level store with an affine index that every lane the
        early-return guards before it keep reaches."""
        out: Dict[int, tuple] = {}
        guards: List[tuple] = []
        for stmt in self.info.node.body.stmts:
            if isinstance(stmt, A.If) and stmt.els is None and _only_returns(stmt.then):
                try:
                    guards.append(self._condition(stmt.cond))
                except _NotAffine:
                    return out
                continue
            if _returns(stmt):
                return out
            expr = stmt.expr if isinstance(stmt, A.ExprStmt) else None
            if isinstance(expr, A.Assign) and expr.op == "=" and isinstance(expr.target, A.Index):
                param = self._param(expr.target.base)
                if param is not None and param not in out:
                    try:
                        form = self.affine(expr.target.index)
                    except _NotAffine:
                        continue
                    out[param] = (expr.target.base.symbol.type.pointee.size, form, tuple(guards))
        return out

    def _condition(self, e: A.Expr):
        e = _strip(e)
        if isinstance(e, A.BinaryOp) and e.op in ("||", "&&"):
            return ("or" if e.op == "||" else "and", self._condition(e.lhs), self._condition(e.rhs))
        if isinstance(e, A.UnaryOp) and e.op == "!":
            return ("not", self._condition(e.operand))
        if isinstance(e, A.BinaryOp) and e.op in _NEGATED:
            return ("cmp", e.op, _affine_add(self.affine(e.lhs), self.affine(e.rhs), -1))
        raise _NotAffine


def _wide_int(t) -> bool:
    return isinstance(t, ScalarType) and t.is_integer and t.size >= 4


def _strip(e: A.Expr) -> A.Expr:
    while isinstance(e, A.ImplicitCast):
        e = e.expr
    return e


#: AST class -> the dataclass fields that may hold child nodes.
_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _children(node) -> List[object]:
    names = _FIELDS.get(type(node))
    if names is None:
        names = _FIELDS[type(node)] = tuple(
            f.name for f in dataclasses.fields(node) if f.name not in ("line", "col")
        )
    out: List[object] = []
    for name in names:
        value = getattr(node, name)
        if isinstance(value, A.Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, A.Node))
    return out


def _walk(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def _returns(node) -> bool:
    return any(isinstance(n, A.Return) for n in _walk(node))


def _only_returns(block: A.Block) -> bool:
    stmts = block.stmts
    while len(stmts) == 1 and isinstance(stmts[0], A.Block):
        stmts = stmts[0].stmts
    return len(stmts) == 1 and isinstance(stmts[0], A.Return)


def kernel_summaries(info: FunctionInfo) -> Dict[int, tuple]:
    """``{parameter index: (read, write, cover)}`` for every ``__global``
    pointer parameter of one analysed kernel."""
    pass_ = _Kernel(info)
    pass_.visit(info.node.body)
    covers = pass_.covers()
    out: Dict[int, tuple] = {}
    for i, sym in enumerate(info.param_symbols):
        if not (isinstance(sym.type, PointerType) and sym.type.address_space == "global"):
            continue
        out[i] = (
            pass_.summary(i, pass_.reads, False),
            pass_.summary(i, pass_.writes, True),
            covers.get(i),
        )
    return out


def program_summaries(analyzed: AnalyzedProgram) -> Dict[str, Dict[int, tuple]]:
    """:func:`kernel_summaries` of every kernel of a program."""
    return {name: kernel_summaries(info) for name, info in analyzed.kernels.items()}


# ----------------------------------------------------------------------
# evaluation at launch
# ----------------------------------------------------------------------
class Launch:
    """What a summary is a function of: the NDRange and the scalar
    argument values (indexed like the kernel's parameters)."""

    __slots__ = ("global_size", "global_offset", "local_size", "args")

    def __init__(self, global_size, global_offset=None, local_size=None, args=()) -> None:
        self.global_size = [int(g) for g in global_size]
        dims = len(self.global_size)
        self.global_offset = [int(v) for v in global_offset] if global_offset else [0] * dims
        self.local_size = [int(v) for v in local_size] if local_size else None
        self.args = args

    def uniform(self, e) -> int:
        if isinstance(e, int):
            return e
        op = e[0]
        if op == "+":
            return self.uniform(e[1]) + self.uniform(e[2])
        if op == "*":
            return self.uniform(e[1]) * self.uniform(e[2])
        if op == "arg":
            value = self.args[e[1]]
            if isinstance(value, bool) or not float(value).is_integer():
                raise _NotAffine
            return int(value)
        _, name, dim = e
        g = self.global_size
        if dim >= len(g):
            return 0 if name == "get_global_offset" else 1
        local = self.local_size[dim] if self.local_size else None
        if name == "get_global_size":
            return g[dim]
        if name == "get_global_offset":
            return self.global_offset[dim]
        if local is None:
            raise _NotAffine
        return local if name == "get_local_size" else g[dim] // local

    def id_range(self, kind: str, dim: int) -> Tuple[int, int]:
        """Inclusive bounds of one work-item id over the box."""
        if dim >= len(self.global_size):
            return 0, 0
        g = self.global_size[dim]
        if kind == "gid":
            lo = self.global_offset[dim]
            return lo, lo + g - 1
        if not self.local_size:  # the runtime picks it: both ids lie in [0, g)
            return 0, g - 1
        local = self.local_size[dim]
        return 0, (local if kind == "lid" else g // local) - 1

    def bounds(self, form) -> Tuple[int, int]:
        """Inclusive bounds of an affine form over the box."""
        const = self.uniform(form[0])
        lo = hi = const
        magnitude = abs(const)
        for (kind, dim), coeff in form[1]:
            c = self.uniform(coeff)
            a, b = self.id_range(kind, dim)
            lo += min(c * a, c * b)
            hi += max(c * a, c * b)
            magnitude += abs(c) * max(abs(a), abs(b))
        if magnitude >= _INT_LIMIT:
            raise _NotAffine
        return lo, hi


def section(summary, nbytes: int, launch: Launch) -> Tuple[int, int]:
    """``(offset, size)`` of the bytes of an ``nbytes`` buffer that a
    summary covers at ``launch``; ``(0, 0)`` when it covers none."""
    if summary is None:
        return 0, 0
    if summary == WHOLE:
        return 0, nbytes
    lo, hi = nbytes, 0
    try:
        for esize, form in summary:
            first, last = launch.bounds(form)
            lo = min(lo, max(0, first * esize))
            hi = max(hi, min(nbytes, (last + 1) * esize))
    except (_NotAffine, TypeError, ValueError, IndexError):
        return 0, nbytes
    return (lo, hi - lo) if hi > lo else (0, 0)


def _may_be(cond, value: bool, launch: Launch) -> bool:
    """Whether a guard condition may evaluate to ``value`` on some lane
    of the box (an over-approximation: each comparison is judged over
    the whole box on its own)."""
    op = cond[0]
    if op == "not":
        return _may_be(cond[1], not value, launch)
    if op in ("or", "and"):
        a, b = _may_be(cond[1], value, launch), _may_be(cond[2], value, launch)
        return (a or b) if (op == "or") == value else (a and b)
    compare = cond[1] if value else _NEGATED[cond[1]]
    lo, hi = launch.bounds(cond[2])  # of left - right
    return {"<": lo < 0, "<=": lo <= 0, ">": hi > 0, ">=": hi >= 0, "==": lo <= 0 <= hi, "!=": not lo == hi == 0}[compare]


def covers(cover, nbytes: int, launch: Launch) -> bool:
    """Whether a cover (:func:`kernel_summaries`) writes every byte of an
    ``nbytes`` buffer at ``launch``: no guard stops a lane, and the
    store's index enumerates ``[0, nbytes / element size)`` exactly,
    row-major — sorted by coefficient, the first is 1 and each next one
    the product of the extents before it — from origin 0."""
    if cover is None:
        return False
    esize, form, guards = cover
    try:
        if nbytes % esize or any(_may_be(g, True, launch) for g in guards):
            return False
        origin = launch.uniform(form[0])
        dims = []
        for (kind, dim), coeff in form[1]:
            a, b = launch.id_range(kind, dim)
            if kind != "gid":
                return False
            c = launch.uniform(coeff)
            origin += c * a
            dims.append((c, b - a + 1))
    except (_NotAffine, TypeError, ValueError, IndexError):
        return False
    stride = 1
    for c, extent in sorted(dims):
        if c != stride:
            return False
        stride *= extent
    return origin == 0 and stride == nbytes // esize


def launch_sections(access, nbytes: int, launch: Launch) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """``(read section, write section)`` of one parameter's summaries."""
    read, write, _cover = access
    return section(read, nbytes, launch), section(write, nbytes, launch)


def describe(summary) -> str:
    """A summary as text: ``-``, ``whole`` or its element indexes."""
    if summary is None:
        return "-"
    if summary == WHOLE:
        return WHOLE
    return " ∪ ".join(f"{esize}·[{_form_text(form)}]" for esize, form in summary)


def _form_text(form) -> str:
    parts = [f"{_uniform_text(c)}·{kind}{dim}" if c != 1 else f"{kind}{dim}" for (kind, dim), c in form[1]]
    if form[0] != 0 or not parts:
        parts.append(_uniform_text(form[0]))
    return " + ".join(parts)


def _uniform_text(e) -> str:
    if isinstance(e, int):
        return str(e)
    if e[0] == "arg":
        return f"arg{e[1]}"
    if e[0] == "q":
        return f"{e[1]}({e[2]})"
    return f"({_uniform_text(e[1])} {e[0]} {_uniform_text(e[2])})"


__all__ = [
    "WHOLE",
    "Launch",
    "covers",
    "describe",
    "kernel_summaries",
    "launch_sections",
    "program_summaries",
    "section",
]
