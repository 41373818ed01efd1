"""SPMD-on-SIMD code generation: OpenCL C -> vectorised NumPy Python.

Every work-item of a dispatch chunk is a *lane*; variables are NumPy
scalars (uniform values) or arrays of shape ``(lanes,)``.  Control-flow
divergence is realised with an active-lane mask (``_m``, popcount
``_mn``, width ``_w``) in the ispc style:

* ``if``/``else`` partition the mask by the condition and merge after;
* loops iterate while any lane is active; ``continue`` parks lanes for the
  next iteration, ``break`` removes them until the loop exits;
* ``return`` removes lanes for the rest of the function and accumulates
  the return value under the mask.

The generated code is three-address style: every operation is a call into
:mod:`repro.clc.vecrt`, which also charges the op-accounting used by the
device cost model.  Deviations from C (documented): both arms of ``?:``
and both operands of ``&&``/``||`` are evaluated (vector semantics), so
side effects inside them happen unconditionally.

Two analyses keep the generated code from paying for lanes and values
nobody reads (``docs/architecture.md``, "Kernel execution"):

* **Merge elision.**  A store under a mask needs ``merge(_m, new, old)``
  only if a masked-off lane can still read the old value.  Masked-off
  lanes are *parked* by a construct and rejoin at a known point (after
  the ``if``, at the ``else``, after the loop, at the loop's ``continue``
  target); returned lanes never rejoin.  :class:`_Liveness` computes,
  per work-item, which variables are live at each rejoin point; the
  store is a plain assignment iff the variable is dead at the rejoin
  point of every construct entered since its declaration.  Inactive
  lanes may therefore hold garbage, which is the contract of every
  ``vecrt`` helper (they look at active lanes only).
* **Lane compaction.**  A loop whose body needs no work-group state
  (:attr:`_Summary.group_state`) gathers the variables in scope down to
  the active lanes once occupancy drops (thresholds in ``vecrt``), runs
  on with an all-true mask, and scatters back at its exit.  ``_mn`` is
  always the active-lane count, so every charge is unchanged.

Each decision is left as a comment in the generated source.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.clc import cast as A
from repro.clc.errors import CLCompileError
from repro.clc.sema import AnalyzedProgram, FunctionInfo, Symbol
from repro.clc.types import PointerType, ScalarType, VoidType

_BINOP_FN = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "<<": "shl",
    ">>": "shr",
    "&": "bitand",
    "|": "bitor",
    "^": "bitxor",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
    "==": "eq",
    "!=": "ne",
    "&&": "and_",
    "||": "or_",
}

_LOOPS = (A.While, A.DoWhile, A.For)
_NOTHING: FrozenSet[str] = frozenset()


def _space_of(sym: Symbol) -> str:
    if isinstance(sym.type, PointerType):
        return sym.type.address_space
    return sym.address_space


_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _children(node: A.Node):
    """Direct AST children, in field order."""
    names = _FIELDS.get(type(node))
    if names is None:
        names = _FIELDS[type(node)] = tuple(
            f.name for f in dataclasses.fields(node) if f.name not in ("line", "col")
        )
    for name in names:
        value = getattr(node, name)
        if isinstance(value, A.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, A.Node):
                    yield item


def _is_value(sym: Symbol) -> bool:
    """Scalar-typed variables are the per-lane values; pointers and
    arrays name storage and are never merged or gathered."""
    return isinstance(sym.type, ScalarType)


def _storage_reason(space: str) -> Optional[str]:
    if space in ("global", "constant"):
        return None
    return "local memory" if space == "local" else "private array"


class _Summary(NamedTuple):
    """What a subtree does, computed once per node (:func:`_summary`)."""

    #: Slots read; slots assigned with plain ``=`` (the work-item
    #: executing the expression no longer needs the old value: only
    #: meaningful for an expression); slots assigned at all (compound
    #: assignments and ``++``/``--`` also read their target).
    reads: FrozenSet[str]
    kills: FrozenSet[str]
    writes: FrozenSet[str]
    #: Contains a ``return`` statement.
    returns: bool
    #: Why the subtree cannot run on a subset of its lanes, or ``None``:
    #: barriers compare whole work-groups, ``__local`` memory is indexed
    #: by the lane's group and ``__private`` arrays by the lane itself,
    #: directly or in a helper function it calls.
    group_state: Optional[str]


_EMPTY = _Summary(_NOTHING, _NOTHING, _NOTHING, False, None)


def _summary(node: Optional[A.Node], memo: Dict[int, _Summary]) -> _Summary:
    """The :class:`_Summary` of ``node``; ``memo`` is per program (a
    call looks at the summary of its callee's body)."""
    if node is None:
        return _EMPTY
    found = memo.get(id(node))
    if found is not None:
        return found
    reads = kills = writes = _NOTHING
    returns = isinstance(node, A.Return)
    group_state = None
    parts = _children(node)
    if isinstance(node, A.VarRef):
        if _is_value(node.symbol):
            reads = frozenset((node.symbol.slot,))
    elif isinstance(node, A.Assign) and isinstance(node.target, A.VarRef):
        writes = frozenset((node.target.symbol.slot,))
        if node.op == "=":
            kills = writes
            parts = (node.value,)
    elif isinstance(node, (A.UnaryOp, A.PostfixOp)) and node.op in ("++", "--"):
        if isinstance(node.operand, A.VarRef):
            writes = frozenset((node.operand.symbol.slot,))
    elif isinstance(node, A.VarDecl) and node.array_size is not None:
        group_state = _storage_reason(node.address_space)
    elif isinstance(node, A.Index):
        group_state = _storage_reason(_space_of(node.base.symbol))
    elif isinstance(node, A.Call):
        builtin = getattr(node, "builtin", None)
        callee = getattr(node, "func", None)
        if builtin is not None and builtin.kind == "barrier":
            group_state = "barrier"
        elif builtin is not None and builtin.kind == "atomic" and isinstance(node.args[0], A.VarRef):
            group_state = _storage_reason(_space_of(node.args[0].symbol))  # &buf[i] is an Index
        elif callee is not None:
            group_state = _summary(callee.node.body, memo).group_state  # sema rejects recursion
    for part in parts:
        sub = _summary(part, memo)
        if sub is not _EMPTY:
            reads |= sub.reads
            kills |= sub.kills
            writes |= sub.writes
            returns = returns or sub.returns
            group_state = group_state or sub.group_state
    if not (reads or writes or returns or group_state):
        found = _EMPTY
    else:
        found = _Summary(reads, kills, writes, returns, group_state)
    memo[id(node)] = found
    return found


class _Liveness:
    """Backward per-work-item liveness over the structured AST.

    Annotates every ``if`` with ``live_after`` / ``live_else`` (live at
    the join; live on entry to the ``else`` arm, or at the join without
    one) and every loop with ``live_after`` / ``live_continue`` (live
    after the loop; live at its ``continue`` target): the rejoin points
    of the lanes each construct parks.  Loops run to a fixpoint; the
    last pass over a body sees the final sets, so the annotations it
    leaves are the final ones."""

    def __init__(self, summaries: Dict[int, _Summary]) -> None:
        self.summaries = summaries

    def run(self, fn: A.FuncDef) -> None:
        self.block(fn.body.stmts, _NOTHING, _NOTHING, _NOTHING)

    def expr(self, expr: Optional[A.Node], live: FrozenSet[str]) -> FrozenSet[str]:
        does = _summary(expr, self.summaries)
        return (live - does.kills) | does.reads

    def block(self, stmts, live, brk, cnt) -> FrozenSet[str]:
        for stmt in reversed(stmts):
            live = self.stmt(stmt, live, brk, cnt)
        return live

    def stmt(self, stmt: A.Stmt, live, brk, cnt) -> FrozenSet[str]:
        """Live-in of ``stmt`` given its live-out, the live set at the
        enclosing loop's exit (``brk``) and ``continue`` target (``cnt``)."""
        if isinstance(stmt, A.Block):
            return self.block(stmt.stmts, live, brk, cnt)
        if isinstance(stmt, A.DeclStmt):
            for decl in reversed(stmt.decls):
                live = self.expr(decl.init, live - {decl.symbol.slot})
            return live
        if isinstance(stmt, A.ExprStmt):
            return self.expr(stmt.expr, live)
        if isinstance(stmt, A.If):
            stmt.live_after = live
            then_in = self.block(stmt.then.stmts, live, brk, cnt)
            else_in = live if stmt.els is None else self.block(stmt.els.stmts, live, brk, cnt)
            stmt.live_else = else_in
            return self.expr(stmt.cond, then_in | else_in)
        if isinstance(stmt, _LOOPS):
            return self.loop(stmt, live)
        if isinstance(stmt, A.Break):
            return brk
        if isinstance(stmt, A.Continue):
            return cnt
        if isinstance(stmt, A.Return):
            return self.expr(stmt.value, _NOTHING)  # returned lanes read nothing more
        raise CLCompileError(f"codegen: unhandled statement {type(stmt).__name__}", stmt.line, stmt.col)

    def loop(self, stmt, after) -> FrozenSet[str]:
        stmt.live_after = after
        head = _NOTHING  # live where the loop decides to go round again
        while True:
            if isinstance(stmt, A.DoWhile):
                # head is the body's entry; ``continue`` goes to the condition
                target = self.expr(stmt.cond, after | head)
                new_head = self.block(stmt.body.stmts, target, after, target)
            else:
                # head is the condition; ``continue`` goes to the step
                target = self.expr(stmt.step, head) if isinstance(stmt, A.For) else head
                body_in = self.block(stmt.body.stmts, target, after, target)
                new_head = self.expr(stmt.cond, after | body_in)
            stmt.live_continue = target
            if new_head == head:
                break
            head = new_head
        if isinstance(stmt, A.For) and stmt.init is not None:
            return self.stmt(stmt.init, head, _NOTHING, _NOTHING)
        return head


def _binds_continue(node: A.Node) -> bool:
    """Does ``node`` (a loop body) contain a ``continue`` of its own
    loop, i.e. outside any nested loop?"""
    return any(
        isinstance(child, A.Continue)
        or (not isinstance(child, _LOOPS) and _binds_continue(child))
        for child in _children(node)
    )


#: A construct being generated that parks lanes: where they rejoin (for
#: the comments) and what they can still read when they do.
_Frame = Tuple[str, FrozenSet[str]]


class FunctionCodegen:
    def __init__(self, info: FunctionInfo, consts: Dict[str, str], summaries: Dict[int, _Summary]) -> None:
        self.info = info
        self.consts = consts  # literal expression -> module-level name
        self.summaries = summaries  # the program's _summary memo
        self.lines: List[str] = []
        self.indent = 1
        self._temp = 0
        self._label = 0
        self.loop_stack: List[str] = []  # continue-mask variable names
        self.frames: List[_Frame] = []  # constructs that park lanes, outermost first
        self.decl_depth: Dict[str, int] = {}  # slot -> len(frames) at its declaration
        self.scope: List[Symbol] = []  # scalar variables in scope, in declaration order
        self.returns = 0  # return statements generated so far
        self.has_return = _summary(info.node.body, summaries).returns
        self.is_void = isinstance(info.return_type, VoidType)

    # -- emission helpers ---------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def label(self) -> int:
        self._label += 1
        return self._label

    def fresh_mask_count(self) -> None:
        self.emit("_mn = _rt.count(_m)")

    def const(self, dtype: str, value: object) -> str:
        """A literal, built once at module level instead of per use."""
        expr = f"_np.dtype('{dtype}').type({value!r})"
        name = self.consts.get(expr)
        if name is None:
            name = self.consts[expr] = f"_c{len(self.consts)}"
        return name

    # -- top level ------------------------------------------------------------
    def generate(self) -> str:
        info = self.info
        _Liveness(self.summaries).run(info.node)
        # A kernel's scalar arguments are uniform for as long as nothing
        # assigns them: no lane-wise value to gather.
        written = _summary(info.node.body, self.summaries).writes
        for sym in info.param_symbols:
            self.decl_depth[sym.slot] = 0
            if _is_value(sym) and (sym.slot in written or not info.is_kernel):
                self.scope.append(sym)
        params = ", ".join(sym.slot for sym in info.param_symbols)
        header = f"def _fn_{info.name}(_ctx, _m, {params}):" if params else f"def _fn_{info.name}(_ctx, _m):"
        self.lines.append(header)
        self.emit("_mn = _rt.count(_m)")
        self.emit("_w = _m.shape[0]")
        if self.has_return:
            self.emit("_ret = _np.zeros_like(_m)")
        if not self.is_void:
            self.emit(f"_retv = {self.const(info.return_type.dtype, 0)}")
        self.visit_block(info.node.body)
        if not self.is_void:
            self.emit("return _retv")
        else:
            self.emit("return None")
        return "\n".join(self.lines)

    # -- statements --------------------------------------------------------
    def visit_block(self, block: A.Block) -> None:
        if not block.stmts:
            self.emit("pass")
            return
        in_scope = len(self.scope)
        for stmt in block.stmts:
            self.visit_stmt(stmt)
        del self.scope[in_scope:]

    def visit_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            if stmt.stmts:
                self.visit_block(stmt)
            return
        if isinstance(stmt, A.DeclStmt):
            for decl in stmt.decls:
                self.visit_decl(decl)
            return
        if isinstance(stmt, A.ExprStmt):
            self.visit_expr(stmt.expr)
            return
        if isinstance(stmt, A.If):
            self.visit_if(stmt)
            return
        if isinstance(stmt, _LOOPS):
            self.visit_loop(stmt)
            return
        if isinstance(stmt, A.Break):
            self.emit("_m = _np.zeros_like(_m)")
            self.emit("_mn = 0")
            return
        if isinstance(stmt, A.Continue):
            cnt = self.loop_stack[-1]
            self.emit(f"{cnt} = {cnt} | _m")
            self.emit("_m = _np.zeros_like(_m)")
            self.emit("_mn = 0")
            return
        if isinstance(stmt, A.Return):
            if stmt.value is not None:
                v = self.visit_expr(stmt.value)
                if self.returns == 0 and not self.loop_stack:
                    # No lane has returned yet, so no lane's value is lost.
                    self.emit("# merge elided: first return")
                    self.emit(f"_retv = {v}")
                else:
                    self.emit("# merge kept: lanes that returned earlier keep their value")
                    self.emit(f"_retv = {v} if _mn == _w else _rt.merge(_m, {v}, _retv)")
            self.returns += 1
            self.emit("_ret = _ret | _m")
            self.emit("_m = _np.zeros_like(_m)")
            self.emit("_mn = 0")
            return
        raise CLCompileError(f"codegen: unhandled statement {type(stmt).__name__}", stmt.line, stmt.col)

    def visit_decl(self, decl: A.VarDecl) -> None:
        sym: Symbol = decl.symbol
        if sym.kind == "array":
            elem = sym.type.pointee
            if sym.address_space == "local":
                self.emit(f"{sym.slot} = _ctx.local_array('{sym.slot}', '{elem.dtype}', {sym.array_size})")
            else:
                self.emit(f"{sym.slot} = _rt.private_array(_ctx, '{elem.dtype}', {sym.array_size})")
            return
        # A declaration starts the variable's life: no lane holds an old
        # value, so it is a plain assignment under any mask.
        if decl.init is not None:
            v = self.visit_expr(decl.init)
            self.emit(f"{sym.slot} = {v}")
        else:
            self.emit(f"{sym.slot} = {self.const(sym.type.dtype, 0)}")
        self.decl_depth[sym.slot] = len(self.frames)
        if _is_value(sym):
            self.scope.append(sym)

    def _not_returned(self) -> str:
        return " & _rt.not_(_ret)" if self.has_return else ""

    def visit_if(self, stmt: A.If) -> None:
        c = self.visit_expr(stmt.cond)
        k = self.label()
        save, then_end = f"_msv{k}", f"_mth{k}"
        self.emit(f"{save} = _m")
        self.emit(f"_m = {save} & {c}")
        self.fresh_mask_count()
        self.emit("if _mn:")
        self.indent += 1
        self.frames.append((f"at the else of if {k}" if stmt.els else f"after if {k}", stmt.live_else))
        self.visit_block(stmt.then)
        self.frames.pop()
        self.indent -= 1
        self.emit(f"{then_end} = _m")
        if stmt.els is not None:
            self.emit(f"_m = {save} & _rt.not_({c}){self._not_returned()}")
            self.fresh_mask_count()
            self.emit("if _mn:")
            self.indent += 1
            self.frames.append((f"after if {k}", stmt.live_after))
            self.visit_block(stmt.els)
            self.frames.pop()
            self.indent -= 1
            self.emit(f"_m = {then_end} | _m")
        else:
            self.emit(f"_m = ({save} & _rt.not_({c}){self._not_returned()}) | {then_end}")
        self.fresh_mask_count()

    def visit_loop(self, stmt) -> None:
        """``while``, ``do``/``while`` and ``for`` share one shape: the
        Python loop runs while any lane is active; the condition narrows
        the mask at the head (``do``: at the tail) of each iteration."""
        in_scope = len(self.scope)
        if isinstance(stmt, A.For) and stmt.init is not None:
            self.visit_stmt(stmt.init)
        k = self.label()
        save, cnt, state = f"_msv{k}", f"_mcn{k}", f"_cp{k}"
        reason = _summary(stmt, self.summaries).group_state
        carried = self._carried(stmt) if reason is None else None
        self.emit(f"# loop {k}: " + ("compactable" if reason is None else f"masked ({reason})"))
        self.emit(f"{save} = _m")
        if carried:
            names = ", ".join(name for name, _ in carried)
            flags = f"_sc{k}"  # which of them the exit scatters back
            self.emit(f"{state}, {flags} = None, ({', '.join(str(flag) for _, flag in carried)},)")
        self.emit("while True:")
        self.indent += 1
        self.emit("if not _mn: break")
        if carried:
            self.emit("if _w > _rt.COMPACT_MIN_LANES and _mn <= _rt.COMPACT_OCCUPANCY * _w:")
            self.emit(f"    {state}, _m, {names} = _rt.compact(_ctx, {state}, {flags}, _m, {names})")
            self.emit("    _w = _mn")
        self.frames.append((f"after loop {k}", stmt.live_after))

        def narrow_by_condition() -> None:
            if stmt.cond is not None:
                c = self.visit_expr(stmt.cond)
                self.emit(f"_m = _m & {c}")
                self.fresh_mask_count()

        if not isinstance(stmt, A.DoWhile):
            narrow_by_condition()
            if stmt.cond is not None:
                self.emit("if not _mn: break")
        continues = _binds_continue(stmt.body)
        if continues:
            self.emit(f"{cnt} = _np.zeros_like(_m)")
            self.frames.append((f"at the continue target of loop {k}", stmt.live_continue))
        self.loop_stack.append(cnt)
        self.visit_block(stmt.body)
        self.loop_stack.pop()
        if continues:
            self.frames.pop()
            self.emit(f"_m = _m | {cnt}")
            self.fresh_mask_count()
        if isinstance(stmt, A.DoWhile):
            narrow_by_condition()
        elif isinstance(stmt, A.For) and stmt.step is not None:
            self.emit("if _mn:")
            self.indent += 1
            self.visit_expr(stmt.step)
            self.indent -= 1
        self.frames.pop()
        self.indent -= 1
        if carried:
            self.emit(f"if {state} is not None:")
            self.emit(f"    _w, {names} = _rt.expand(_ctx, {state}, {flags}, {names})")
        self.emit(f"_m = {save}{self._not_returned()}")
        self.fresh_mask_count()
        del self.scope[in_scope:]

    def _carried(self, stmt) -> List[Tuple[str, bool]]:
        """What a compaction of this loop gathers: every per-lane
        variable in scope plus the return state, each with whether the
        loop's exit must scatter it back (assigned in the loop and read
        after it) or can simply restore the full-width value."""
        does = _summary(stmt, self.summaries)  # a ``for``'s init writes only its own variables
        carried = [
            (sym.slot, sym.slot in does.writes and sym.slot in stmt.live_after) for sym in self.scope
        ]
        if self.has_return:
            carried.append(("_ret", does.returns))
            if not self.is_void:
                carried.append(("_retv", does.returns))
        return carried

    # -- expressions ---------------------------------------------------------
    def visit_expr(self, expr: A.Expr) -> str:
        method = getattr(self, f"gen_{type(expr).__name__}", None)
        if method is None:
            raise CLCompileError(f"codegen: unhandled expression {type(expr).__name__}", expr.line, expr.col)
        return method(expr)

    def gen_IntLiteral(self, expr: A.IntLiteral) -> str:
        return self.const(expr.type.dtype, expr.value)

    def gen_FloatLiteral(self, expr: A.FloatLiteral) -> str:
        return self.const(expr.type.dtype, expr.value)

    def gen_BoolLiteral(self, expr: A.BoolLiteral) -> str:
        return self.const("bool", bool(expr.value))

    def gen_VarRef(self, expr: A.VarRef) -> str:
        return expr.symbol.slot

    def gen_ImplicitCast(self, expr: A.ImplicitCast) -> str:
        v = self.visit_expr(expr.expr)
        t = self.temp()
        self.emit(f"{t} = _rt.cast(_ctx, _mn, {v}, '{expr.target_type.dtype}')")
        return t

    def gen_Cast(self, expr: A.Cast) -> str:
        v = self.visit_expr(expr.expr)
        t = self.temp()
        self.emit(f"{t} = _rt.cast(_ctx, _mn, {v}, '{expr.target_type.dtype}')")
        return t

    def gen_UnaryOp(self, expr: A.UnaryOp) -> str:
        if expr.op in ("++", "--"):
            new, _old = self._emit_incdec(expr.operand, expr.op)
            return new
        if expr.op == "&":
            raise CLCompileError(
                "address-of is only supported as the first argument of atomics",
                expr.line,
                expr.col,
            )
        v = self.visit_expr(expr.operand)
        if expr.op == "+":
            return v
        t = self.temp()
        if expr.op == "-":
            self.emit(f"{t} = _rt.neg(_ctx, _mn, {v})")
        elif expr.op == "~":
            self.emit(f"{t} = _rt.invert(_ctx, _mn, {v})")
        elif expr.op == "!":
            self.emit(f"{t} = _rt.not_({v})")
        else:  # pragma: no cover
            raise CLCompileError(f"codegen: unary {expr.op!r}", expr.line, expr.col)
        return t

    def gen_PostfixOp(self, expr: A.PostfixOp) -> str:
        _new, old = self._emit_incdec(expr.operand, expr.op)
        return old

    def _emit_incdec(self, target: A.Expr, op: str) -> tuple:
        """x++/++x desugared; returns (new_value_ref, old_value_ref)."""
        fn = "add" if op == "++" else "sub"
        t_type: ScalarType = target.type
        one = self.const(t_type.dtype, 1)
        old = self.temp()
        if isinstance(target, A.VarRef):
            slot = target.symbol.slot
            self.emit(f"{old} = {slot}")
            new = self.temp()
            self.emit(f"{new} = _rt.{fn}(_ctx, _mn, {old}, {one})")
            self._store_var(target.symbol, new)
            return new, old
        # Index target
        base_sym, idx = self._index_parts(target)
        self.emit(f"{old} = {self._load_code(base_sym, idx)}")
        new = self.temp()
        self.emit(f"{new} = _rt.{fn}(_ctx, _mn, {old}, {one})")
        self._emit_store(base_sym, idx, new)
        return new, old

    def gen_BinaryOp(self, expr: A.BinaryOp) -> str:
        if expr.op == ",":
            self.visit_expr(expr.lhs)
            return self.visit_expr(expr.rhs)
        a = self.visit_expr(expr.lhs)
        b = self.visit_expr(expr.rhs)
        t = self.temp()
        if expr.op == "/":
            fn = "fdiv" if expr.type.is_float else "idiv"
        elif expr.op == "%":
            fn = "imod"
        else:
            fn = _BINOP_FN[expr.op]
        self.emit(f"{t} = _rt.{fn}(_ctx, _mn, {a}, {b})")
        return t

    def gen_Ternary(self, expr: A.Ternary) -> str:
        c = self.visit_expr(expr.cond)
        a = self.visit_expr(expr.then)
        b = self.visit_expr(expr.els)
        t = self.temp()
        self.emit(f"{t} = _rt.select(_ctx, _mn, {c}, {a}, {b})")
        return t

    # -- assignment ------------------------------------------------------------
    def _store_var(self, sym: Symbol, value_ref: str) -> None:
        """``sym = value`` for the active lanes.  Lanes parked by a
        construct entered since ``sym`` was declared keep the old value
        only if they can still read it where they rejoin."""
        slot = sym.slot
        parked = self.frames[self.decl_depth[slot]:]
        where = next((what for what, live in parked if slot in live), None)
        if where is not None:
            self.emit(f"# merge kept: {slot} live {where}")
            self.emit(f"{slot} = {value_ref} if _mn == _w else _rt.merge(_m, {value_ref}, {slot})")
            return
        if parked:
            self.emit(f"# merge elided: {slot} dead {parked[-1][0]}")
        self.emit(f"{slot} = {value_ref}")

    def _index_parts(self, expr: A.Index) -> tuple:
        base_sym: Symbol = expr.base.symbol
        idx = self.visit_expr(expr.index)
        return base_sym, idx

    def _load_code(self, sym: Symbol, idx: str) -> str:
        space = _space_of(sym)
        if space in ("global", "constant"):
            return f"_rt.load_global(_ctx, _mn, _m, {sym.slot}, {idx})"
        if space == "local":
            return f"_rt.load_local(_ctx, _mn, _m, {sym.slot}, {idx})"
        return f"_rt.load_private(_ctx, _mn, _m, {sym.slot}, {idx})"

    def _emit_store(self, sym: Symbol, idx: str, value_ref: str) -> None:
        space = _space_of(sym)
        if space in ("global", "constant"):
            self.emit(f"_rt.store_global(_ctx, _mn, _m, {sym.slot}, {idx}, {value_ref})")
        elif space == "local":
            self.emit(f"_rt.store_local(_ctx, _mn, _m, {sym.slot}, {idx}, {value_ref})")
        else:
            self.emit(f"_rt.store_private(_ctx, _mn, _m, {sym.slot}, {idx}, {value_ref})")

    def gen_Index(self, expr: A.Index) -> str:
        base_sym, idx = self._index_parts(expr)
        t = self.temp()
        self.emit(f"{t} = {self._load_code(base_sym, idx)}")
        return t

    def gen_Assign(self, expr: A.Assign) -> str:
        value = self.visit_expr(expr.value)
        target_t: ScalarType = expr.target.type
        common: ScalarType = expr.common_type
        if isinstance(expr.target, A.VarRef):
            sym = expr.target.symbol
            if expr.op == "=":
                result = value
            else:
                cur = sym.slot
                result = self._compound(cur, value, expr.op, common, target_t)
            self._store_var(sym, result)
            out = self.temp()
            self.emit(f"{out} = {sym.slot}")
            return out
        base_sym, idx = self._index_parts(expr.target)
        if expr.op == "=":
            result = value
        else:
            cur = self.temp()
            self.emit(f"{cur} = {self._load_code(base_sym, idx)}")
            result = self._compound(cur, value, expr.op, common, target_t)
        self._emit_store(base_sym, idx, result)
        return result

    def _compound(self, cur: str, value: str, op: str, common: ScalarType, target: ScalarType) -> str:
        base_op = op[:-1]
        lhs = cur
        if common != target:
            lhs = self.temp()
            self.emit(f"{lhs} = _rt.cast(_ctx, _mn, {cur}, '{common.dtype}')")
        t = self.temp()
        if base_op == "/":
            fn = "fdiv" if common.is_float else "idiv"
        elif base_op == "%":
            fn = "imod"
        else:
            fn = _BINOP_FN[base_op]
        self.emit(f"{t} = _rt.{fn}(_ctx, _mn, {lhs}, {value})")
        if common != target:
            back = self.temp()
            self.emit(f"{back} = _rt.cast(_ctx, _mn, {t}, '{target.dtype}')")
            return back
        return t

    # -- calls -------------------------------------------------------------------
    def gen_Call(self, expr: A.Call) -> str:
        if getattr(expr, "convert_type", None) is not None:
            v = self.visit_expr(expr.args[0])
            t = self.temp()
            self.emit(f"{t} = _rt.cast(_ctx, _mn, {v}, '{expr.convert_type.dtype}')")
            return t
        builtin = getattr(expr, "builtin", None)
        if builtin is not None:
            if builtin.kind == "workitem":
                t = self.temp()
                if builtin.name == "get_work_dim":
                    self.emit(f"{t} = _ctx.get_work_dim()")
                else:
                    d = self.visit_expr(expr.args[0])
                    self.emit(f"{t} = _ctx.{builtin.name}(_rt.uniform({d}, _m))")
                return t
            if builtin.kind == "barrier":
                self.emit("_rt.barrier(_ctx, _m)")
                return "None"
            if builtin.kind == "math":
                args = ", ".join(self.visit_expr(a) for a in expr.args)
                t = self.temp()
                self.emit(
                    f"{t} = _rt.math(_ctx, _mn, '{builtin.impl}', {builtin.weight}, {args})"
                )
                return t
            if builtin.kind == "atomic":
                return self._gen_atomic(expr, builtin)
            raise CLCompileError(  # pragma: no cover
                f"codegen: builtin kind {builtin.kind!r}", expr.line, expr.col
            )
        info: FunctionInfo = expr.func
        args = [self.visit_expr(a) for a in expr.args]
        t = self.temp()
        arg_list = ", ".join(["_ctx", "_m"] + args)
        self.emit(f"{t} = _fn_{info.name}({arg_list})")
        return t

    def _gen_atomic(self, expr: A.Call, builtin) -> str:
        ptr = expr.args[0]
        if isinstance(ptr, A.UnaryOp) and ptr.op == "&" and isinstance(ptr.operand, A.Index):
            base_sym = ptr.operand.base.symbol
            idx = self.visit_expr(ptr.operand.index)
        elif isinstance(ptr, A.VarRef) and isinstance(ptr.type, PointerType):
            base_sym = ptr.symbol
            idx = self.const("int64", 0)
        else:
            raise CLCompileError(
                f"{expr.name}: first argument must be &buf[i] or a pointer variable",
                expr.line,
                expr.col,
            )
        space = _space_of(base_sym)
        kind = "global" if space in ("global", "constant") else space
        vals = [self.visit_expr(a) for a in expr.args[1:]]
        t = self.temp()
        val_part = (", " + ", ".join(vals)) if vals else ""
        self.emit(
            f"{t} = _rt.atomic(_ctx, _mn, _m, '{builtin.name}', '{kind}', {base_sym.slot}, {idx}{val_part})"
        )
        return t


MODULE_PRELUDE = '''\
"""Generated by repro.clc.codegen — do not edit."""
import numpy as _np
from repro.clc import vecrt as _rt
'''


def generate_module(analyzed: AnalyzedProgram) -> str:
    """Generate the Python module source for an analyzed program."""
    consts: Dict[str, str] = {}
    summaries: Dict[int, _Summary] = {}
    functions = []
    for info in analyzed.functions.values():
        functions.append(FunctionCodegen(info, consts, summaries).generate())
        functions.append("")
    literals = [f"{name} = {expr}" for expr, name in consts.items()]
    return "\n".join([MODULE_PRELUDE, *literals, "", *functions])


def compile_module(analyzed: AnalyzedProgram) -> Dict[str, object]:
    """Exec the generated module; returns its namespace."""
    source = generate_module(analyzed)
    namespace: Dict[str, object] = {}
    code = compile(source, "<clc-codegen>", "exec")
    exec(code, namespace)
    namespace["__clc_source__"] = source
    return namespace
