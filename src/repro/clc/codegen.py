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

The unit of generated code is the *basic block*: a straight-line run of
operations executed under one ``_mn``.  Arithmetic, comparisons and
math builtins are emitted as plain NumPy expressions, one
nested expression per statement; :mod:`repro.clc.vecrt` is called only
for what carries OpenCL C semantics (masked assignment, mask
partitioning, C integer division and shifts, conversions, checked
memory access, atomics, barriers).  The op accounting of the device
cost model is charged once per block, ``_ctx.ops += _mn * K`` with ``K``
the static sum of the block's op weights: every weight is an
integer-valued float, so the total is exactly what one charge per op
gave.  Deviation from C (documented): both operands of ``&&``/``||`` and
both arms of ``?:`` are evaluated and charged for every active lane, so
assignments, atomics and calls inside them happen unconditionally.
Their *loads* do not: a load in the right operand or in an arm is
bounds-checked and performed only for the lanes C would evaluate it on,
so ``i < n && data[i] > 0`` cannot fault on the lanes it guards.

The analyses that keep the generated code from paying for lanes, values
and bookkeeping nobody needs (``docs/architecture.md``, "Kernel
execution"):

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
* **Structured masks.**  A construct that removes no lane for good (no
  ``return``, no ``break``/``continue`` of an enclosing loop inside it)
  restores its entry mask and count for free; otherwise the counts of
  disjoint lane sets add up.  Only a loop that contains a ``return``
  recounts, and only functions with such a loop keep ``_ret``.
* **Uniformity.**  A variable is uniform iff every store to it is a
  merge-free store of a uniform expression (literals, size queries,
  operators over uniform variables).  A uniform condition is a Python
  ``if``: it never touches the mask.
* **Local value numbering.**  A side-effect-free expression generated
  twice from the same code, with nothing it reads assigned in between
  and no lane joining, is computed once and charged twice.
* **In-place expression chains.**  In a left-nested chain of arithmetic,
  bitwise or logical operators the left operand of the next operator is
  a fresh intermediate nobody else holds, so the next operator updates
  it in place: ``_e4 = (_c4 * zr_16); _e4 *= zi_17; _e4 += ci_15``.  A
  NumPy scalar rebinds instead; operands are never swapped.  A
  value-numbered ``_tK``, a cast, a load, a helper result or a variable
  never heads a chain.
* **In-place masked integer updates.**  A kept merge
  ``x = merge(_m, x ± u, x)`` of an integer ``x`` that *owns* its array
  (:func:`_owners`: nothing else can hold it) is ``x ±= _m`` (``u`` the
  literal 1) or ``x ±= u * _m``, and ``x ±= u`` with every lane active:
  exact under wrapping arithmetic.  Floats keep the merge (``-0.0``,
  NaN).
* **Lane retirement.**  Lanes a kernel's top-level ``if (...) return;``
  removes never run again; unless what follows needs work-group state,
  the survivors' values are gathered once (as a loop's compaction does)
  and the rest of the kernel runs on an all-true mask.  Nothing is
  scattered back: nothing follows the kernel.
* **Inlining.**  A call outside a divergent loop to a helper of
  :func:`_inline_shape` is generated in place with the caller's facts;
  after its last guards that :func:`_selectable` admits, every lane runs
  on and one select per guard picks the value, charged as the call was.
* **Hoisting.**  In a uniform loop, what reads nothing it declares or
  assigns is computed before it, and charged on every iteration.

Uniformity and value numbering need facts only a generation walk
produces (which stores merge; which expressions recur while still
valid), so every function is generated twice: a dry run that collects
:class:`_Facts` (inlining wherever the shape allows: which loops are
uniform is one of them), then the real one.  Each decision is left as a
comment in the generated source.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.clc import cast as A
from repro.clc.errors import CLCompileError
from repro.clc.sema import AnalyzedProgram, FunctionInfo, Symbol
from repro.clc.types import PointerType, ScalarType, VoidType
from repro.clc.vecrt import W_ALU, W_ATOMIC, W_DIV, W_MEM

#: C binary operators NumPy computes differently from C (``/`` only on
#: integers) go through ``vecrt``; the others are the Python operator of
#: the same spelling on NumPy values of one dtype (sema has applied C's
#: conversions), except the logical ones, whose operands are bools.
_RT_OP = {"<<": "shl", ">>": "shr", "%": "imod", "/": "idiv"}
_LOGICAL_OP = {"&&": "&", "||": "|"}
#: The Python operators (after ``_LOGICAL_OP``) with an augmented form.
_IN_PLACE = ("+", "-", "*", "/", "&", "|", "^")

_LOOPS = (A.While, A.DoWhile, A.For)
_LEAVES = (A.Break, A.Continue, A.Return)
_ATOMS = (A.VarRef, A.IntLiteral, A.FloatLiteral, A.BoolLiteral)
_LANE_QUERIES = ("get_global_id", "get_local_id", "get_group_id")
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
    #: Does something besides computing a value (assigns, calls a user
    #: function, an atomic or a barrier); indexes memory; asks which
    #: work-item it runs on.
    effects: bool
    loads: bool
    lane_query: bool

    #: Computes a value and nothing else, the same on every work-item given what it reads.
    pure = property(lambda self: not (self.effects or self.loads or self.lane_query))


_EMPTY = _Summary(_NOTHING, _NOTHING, _NOTHING, False, None, False, False, False)


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
    effects = isinstance(node, A.Assign)
    loads = isinstance(node, A.Index)
    lane_query = False
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
        effects = True
        if isinstance(node.operand, A.VarRef):
            writes = frozenset((node.operand.symbol.slot,))
    elif isinstance(node, A.VarDecl) and node.array_size is not None:
        group_state = _storage_reason(node.address_space)
    elif isinstance(node, A.Index):
        group_state = _storage_reason(_space_of(node.base.symbol))
    elif isinstance(node, A.Call):
        builtin = getattr(node, "builtin", None)
        callee = getattr(node, "func", None)
        effects = callee is not None or (builtin is not None and builtin.kind in ("barrier", "atomic"))
        lane_query = builtin is not None and builtin.name in _LANE_QUERIES
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
            effects = effects or sub.effects
            loads = loads or sub.loads
            lane_query = lane_query or sub.lane_query
    if not (reads or writes or returns or group_state or effects or loads or lane_query):
        found = _EMPTY
    else:
        found = _Summary(reads, kills, writes, returns, group_state, effects, loads, lane_query)
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


def _binds(node: A.Node, kinds) -> bool:
    """Does ``node`` contain a statement of ``kinds`` (``break``,
    ``continue``) that binds a loop around it, i.e. outside any loop
    nested in it?"""
    return any(
        isinstance(child, kinds) or (not isinstance(child, _LOOPS) and _binds(child, kinds))
        for child in _children(node)
    )


def _always_leaves(stmt: A.Stmt) -> bool:
    """Is the last statement of ``stmt`` a ``break``, ``continue`` or
    ``return``: does no lane fall out of its end?"""
    while isinstance(stmt, A.Block) and stmt.stmts:
        stmt = stmt.stmts[-1]
    return isinstance(stmt, _LEAVES)


def _walk(node: A.Node):
    yield node
    for child in _children(node):
        yield from _walk(child)


def _converted(expr: A.Expr) -> Optional[A.Expr]:
    """The operand of a cast or a ``convert_T()`` (``astype(copy=False)``
    may return it), or ``None``."""
    if isinstance(expr, (A.Cast, A.ImplicitCast)):
        return expr.expr
    if isinstance(expr, A.Call) and getattr(expr, "convert_type", None) is not None:
        return expr.args[0]
    return None


def _bare(op: str, result: ScalarType) -> bool:
    """Is C's binary ``op`` over operands of type ``result`` the bare
    NumPy operator of its spelling (:meth:`FunctionCodegen._binary`), so
    that its value is a NumPy scalar or an array no name holds yet?  Not
    ``,``, nor what goes through ``vecrt``: over uniform operands the
    ``np.where`` of C's integer ``/`` and ``%`` gives a 0-d array, which
    an in-place update cannot widen to the lanes."""
    return op != "," and (op not in _RT_OP or (op == "/" and result.is_float))


def _operator(expr: A.Expr) -> bool:
    """Is ``expr`` a unary or binary operator whose value is
    :func:`_bare`?"""
    if isinstance(expr, A.UnaryOp):
        return expr.op in ("-", "~", "!")
    return isinstance(expr, A.BinaryOp) and _bare(expr.op, expr.type)


def _fresh(expr: A.Expr, named: Set[int]) -> bool:
    """Is the value of ``expr`` a NumPy scalar or an array no name holds
    yet: a literal, or an :func:`_operator` (through casts) not shared
    by value numbering?  ``?:`` is not: under a uniform condition it is
    an arm's own value."""
    while id(expr) not in named and _converted(expr) is not None:
        expr = _converted(expr)
    if id(expr) in named:
        return False
    return isinstance(expr, (A.IntLiteral, A.FloatLiteral, A.BoolLiteral)) or _operator(expr)


def _aliases(expr: Optional[A.Expr]) -> Set[str]:
    """The variables whose array the value of ``expr`` may be: a
    variable, through casts, unary ``+`` and the right of ``,``.  (The
    value of an assignment or a ``++`` is its target's; the target of
    one whose value is used never owns, see :func:`_owners`.)"""
    while expr is not None and not isinstance(expr, A.VarRef):
        if isinstance(expr, A.UnaryOp) and expr.op == "+":
            expr = expr.operand
        elif isinstance(expr, A.BinaryOp) and expr.op == ",":
            expr = expr.rhs
        else:
            expr = _converted(expr)
    return set() if expr is None else {expr.symbol.slot}


def _owners(body: A.Block, named: Set[int]) -> FrozenSet[str]:
    """The integer locals of a function that own their array, so that an
    in-place update changes no other name's value: every store to one is
    :func:`_fresh` (a compound assignment is if its operator is
    :func:`_bare`: ``x /= u`` is ``_rt.idiv``), and it is never the bare
    value (:func:`_aliases`) of a store to a variable, a helper argument,
    a ``return`` or a ``?:`` arm, nor the target of an assignment or
    ``++``/``--`` whose value is used (those values are the variable's
    array).  Parameters never own: the caller holds their arrays.
    ``vecrt.compact`` gathers copies and ``vecrt.expand`` scatters into
    copies, so compaction keeps ownership."""
    discarded: Set[int] = set()

    def discard(expr: A.Expr) -> None:
        discarded.add(id(expr))
        if isinstance(expr, A.BinaryOp) and expr.op == ",":
            discard(expr.rhs)

    for node in _walk(body):  # whose value nobody reads (``FunctionCodegen.unused``)
        if isinstance(node, A.ExprStmt):
            discard(node.expr)
        elif isinstance(node, A.For) and node.step is not None:
            discard(node.step)
        elif isinstance(node, A.BinaryOp) and node.op == ",":
            discard(node.lhs)
    owned: Set[str] = set()
    lost: Set[str] = set()
    for node in _walk(body):
        if isinstance(node, A.VarDecl) and _is_value(node.symbol):
            slot = node.symbol.slot
            if not node.symbol.type.is_float and node.symbol.type.dtype != "bool":
                owned.add(slot)
            if node.init is not None and not _fresh(node.init, named):
                lost.add(slot)
            lost |= _aliases(node.init)
        elif isinstance(node, A.Assign) and isinstance(node.target, A.VarRef):
            slot = node.target.symbol.slot
            if node.op == "=":
                if not _fresh(node.value, named):
                    lost.add(slot)
                lost |= _aliases(node.value)
            elif not _bare(node.op[:-1], node.common_type):
                lost.add(slot)
            if id(node) not in discarded:
                lost.add(slot)
        elif isinstance(node, (A.UnaryOp, A.PostfixOp)) and node.op in ("++", "--"):
            if id(node) not in discarded:
                lost |= _aliases(node.operand)
        elif isinstance(node, A.Call) and getattr(node, "func", None) is not None:
            for arg in node.args:
                lost |= _aliases(arg)
        elif isinstance(node, A.Return):
            lost |= _aliases(node.value)
        elif isinstance(node, A.Ternary):
            lost |= _aliases(node.then) | _aliases(node.els)
    return frozenset(owned - lost)


def _selectable(node: A.Node) -> bool:
    """May ``node`` run on lanes that have already returned: no load,
    store, atomic or call of a user function, no ``vecrt`` division?"""
    return not any(
        isinstance(n, A.Index) or getattr(n, "func", None) is not None
        or getattr(getattr(n, "builtin", None), "kind", None) in ("atomic", "barrier")
        or isinstance(n, (A.BinaryOp, A.Assign)) and n.op in ("/", "%", "/=", "%=") and not _bare(n.op[0], n.type)
        for n in _walk(node)
    )


def _inline_shape(info: FunctionInfo, summaries: Dict[int, _Summary]) -> Optional[int]:
    """If calls to ``info`` may be inlined (a helper returning a value,
    without work-group state, of declarations, expression statements,
    top-level ``if (...) return v;`` guards and a final ``return``), the
    index of the first guard from which all is :func:`_selectable` (else
    of the ``return``): where :meth:`FunctionCodegen.select` takes over."""
    stmts = info.node.body.stmts
    guards = [isinstance(s, A.If) and s.els is None and [type(t) for t in s.then.stmts] == [A.Return] for s in stmts]
    shape = all(g or isinstance(s, (A.DeclStmt, A.ExprStmt)) for s, g in zip(stmts[:-1], guards))
    if info.is_kernel or isinstance(info.return_type, VoidType) or _summary(info.node.body, summaries).group_state:
        return None
    if not (shape and stmts and isinstance(stmts[-1], A.Return)):
        return None
    selected = (i for i, g in enumerate(guards) if g and all(map(_selectable, [stmts[i].then, *stmts[i + 1 :]])))
    return next(selected, len(stmts) - 1)


@dataclasses.dataclass
class _Loop:
    """A loop being generated: uniform?, the slots declared before it and not assigned in it,
    the values computed before it (``avail`` entries, their lines, the per-lane ones)."""

    k: int
    uniform: bool
    invariant: Set[str]
    indent: int
    hoisted: Dict[str, Tuple[object, str, float, _Summary]] = dataclasses.field(default_factory=dict)
    pre: List[str] = dataclasses.field(default_factory=list)
    gathered: List[str] = dataclasses.field(default_factory=list)


class _Facts(NamedTuple):
    """What the dry run of a function learned for the real one."""

    #: Slots that hold a NumPy scalar wherever they are read.
    uniform: FrozenSet[str]
    #: Key (:meth:`FunctionCodegen.key`) of a side-effect-free expression -> the code
    #: generated for it without value numbering: what makes two expressions "the same".
    canon: Dict[object, str]
    #: Keys of the expressions whose value is computed once and read
    #: more than once: the first and every reuse.
    named: Set[object]
    #: Slots updated in place where a merge is kept (:func:`_owners`).
    owners: FrozenSet[str]


#: A construct being generated that parks lanes: where they rejoin (for
#: the comments) and what they can still read when they do.
_Frame = Tuple[str, FrozenSet[str]]


class FunctionCodegen:
    def __init__(
        self,
        info: FunctionInfo,
        consts: Dict[str, str],
        summaries: Dict[int, _Summary],
        called: Set[str],
        inlinable: Dict[str, int],
        facts: Optional[_Facts] = None,
    ) -> None:
        self.info = info
        self.inlinable = inlinable  # helper name -> where its select starts (:func:`_inline_shape`)
        self.consts = consts  # module-level expression -> its name
        self.summaries = summaries  # the program's _summary memo
        self.facts = facts  # None: this is the dry run that collects them
        self.lines: List[str] = []
        self.indent = 1
        self._temp = 0
        self._label = 0
        self.loop_stack: List[int] = []  # labels of the loops being generated
        self.loops: List[_Loop] = []  # the same (an inlined body's too), for hoisting
        self.frames: List[_Frame] = []  # constructs that park lanes, outermost first
        self.decl_depth: Dict[str, int] = {}  # slot -> len(frames) at its declaration
        self.scope: List[Symbol] = []  # scalar variables in scope, in declaration order
        self.returns = 0  # return statements generated so far
        self.retv = "_retv"  # where a return puts its value
        #: In an inlined body: parameter slot -> (code, slots read) of the
        #: argument standing for it; the call sites (part of each key).
        self.subst: Dict[str, Tuple[str, FrozenSet[str]]] = {}
        self.site: Tuple[int, ...] = ()
        self.is_void = isinstance(info.return_type, VoidType)
        #: ``_ret`` (who has returned) is read where a loop that contains
        #: a ``return`` exits, and nowhere else.
        self.needs_ret = any(isinstance(n, _LOOPS) and self.does(n).returns for n in _walk(info.node.body))
        self.pending = 0.0  # op weights of the current block, not charged yet
        self.lanes = ("_m", "_mn")  # mask and count that loads are performed under
        self.unused: Optional[A.Expr] = None  # the expression whose value nobody reads
        #: canonical code -> (id of the expression, code holding its value,
        #: op weight, summary) of the values that can still be reused.
        self.avail: Dict[str, Tuple[int, str, float, _Summary]] = {}
        # What the dry run collects: slots that may be uniform, and every
        # store as (slot, value pure, slots it reads, merged).
        self.candidates = {
            sym.slot for sym in info.param_symbols if info.is_kernel and info.name not in called and _is_value(sym)
        }
        self.stores: List[Tuple[str, bool, FrozenSet[str], bool]] = []
        self.canon: Dict[object, str] = {}
        self.named: Set[object] = set()
        self.no_hoist: Set[int] = set()  # stored values (through conversions): no owner holds a hoisted array
        for node in _walk(info.node.body) if facts is not None else ():  # only the real run hoists
            value = node.init if isinstance(node, A.VarDecl) else node.value if isinstance(node, A.Assign) else None
            while value is not None:
                self.no_hoist.add(id(value))
                value = _converted(value)
        #: Top-level ``if``s of a kernel nobody calls whose then-arm
        #: always returns, with statements after them and none of those
        #: needing work-group state: the lanes they remove are retired.
        stmts = info.node.body.stmts
        self.retiring = {
            id(stmt)
            for i, stmt in enumerate(stmts)
            if info.is_kernel and info.name not in called
            and isinstance(stmt, A.If) and stmt.els is None and _always_leaves(stmt.then)
            and stmts[i + 1 :] and not any(self.does(rest).group_state for rest in stmts[i + 1 :])
        }

    def does(self, node: Optional[A.Node]) -> _Summary:
        return _summary(node, self.summaries)

    def collected(self) -> _Facts:
        """The dry run's verdicts.  Uniformity is the greatest fixpoint:
        assume every candidate uniform, drop the ones a store contradicts."""
        uniform = self.candidates - {slot for slot, _, _, merged in self.stores if merged}
        while True:
            varying = {
                slot for slot, pure, reads, _ in self.stores if slot in uniform and not (pure and reads <= uniform)
            }
            if not varying:
                owners = _owners(self.info.node.body, self.named)
                return _Facts(frozenset(uniform), self.canon, self.named, owners)
            uniform -= varying

    def key(self, expr: A.Expr) -> object:
        """``expr`` to the facts: an inlined node once per call site."""
        return (self.site, id(expr)) if self.site else id(expr)

    def reads(self, node: Optional[A.Node]) -> FrozenSet[str]:
        """The slots ``node`` reads, a parameter read as its argument."""
        reads = self.does(node).reads
        if self.subst and not reads.isdisjoint(self.subst):
            reads = frozenset().union(*(self.subst[slot][1] if slot in self.subst else (slot,) for slot in reads))
        return reads

    def name(self, sym: Symbol) -> str:
        return self.subst[sym.slot][0] if sym.slot in self.subst else sym.slot

    def uniform_value(self, expr: Optional[A.Expr]) -> bool:
        return self.facts is not None and self.does(expr).pure and self.reads(expr) <= self.facts.uniform

    def uniform_note(self, cond: A.Expr) -> Optional[str]:
        """The comment for a condition every active lane agrees on, or
        ``None`` if that cannot be proved."""
        if not self.uniform_value(cond):
            return None
        return "  # uniform: " + (", ".join(sorted(self.reads(cond))) or "constant")

    # -- emission helpers ---------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def label(self) -> int:
        self._label += 1
        return self._label

    def temp(self, code: str) -> str:
        """A new temporary holding the value ``code`` has here."""
        self._temp += 1
        self.emit(f"_t{self._temp} = {code}")
        return f"_t{self._temp}"

    def hold(self, code: str) -> str:
        """``code`` evaluated here, once: a name for its value."""
        return code if code.isidentifier() else self.temp(code)

    def flush(self, pending: Optional[float] = None) -> None:
        """End the current block: charge its operations (or ``pending``),
        all executed under the ``_mn`` of this point."""
        self.pending = self.pending if pending is None else pending
        if self.pending:
            ops = int(self.pending) if self.pending.is_integer() else self.pending
            self.emit(f"_ctx.ops += _mn * {ops}  # block: {ops} ops")
            self.pending = 0.0

    def const(self, dtype: str, value: object) -> str:
        """A literal, built once at module level instead of per use."""
        return self.consts.setdefault(f"_np.dtype('{dtype}').type({value!r})", f"_c{len(self.consts)}")

    def forget(self, slot: Optional[str] = None) -> None:
        """A variable (or, with no ``slot``, memory) changes: values
        computed from it are no longer reusable."""
        self.avail = {
            key: entry
            for key, entry in self.avail.items()
            if (slot not in entry[3].reads if slot else not entry[3].loads)
        }

    # -- top level ------------------------------------------------------------
    def generate(self) -> str:
        info = self.info
        # A kernel's scalar arguments are uniform for as long as nothing
        # assigns them: no lane-wise value to gather.
        written = self.does(info.node.body).writes
        for sym in info.param_symbols:
            self.decl_depth[sym.slot] = 0
            if _is_value(sym) and (sym.slot in written or not info.is_kernel):
                self.scope.append(sym)
        params = "".join(f", {sym.slot}" for sym in info.param_symbols)
        self.lines.append(f"def _fn_{info.name}(_ctx, _m, _mn{params}):")
        self.emit("_w = _m.shape[0]")
        if self.needs_ret:
            self.emit("_ret = _np.zeros_like(_m)")
        if not self.is_void:
            self.emit(f"_retv = {self.const(info.return_type.dtype, 0)}")
        self.visit_block(info.node.body, dead=True)
        self.flush()
        self.emit("return None" if self.is_void else "return _retv")
        return "\n".join(self.lines)

    # -- statements --------------------------------------------------------
    def visit_block(self, block: A.Block, dead: bool = False) -> None:
        """``dead``: nothing reads the mask after the block's last
        statement, so a ``break``/``continue``/``return`` there need not
        clear it."""
        in_scope = len(self.scope)
        for stmt in block.stmts:
            self.visit_stmt(stmt, dead and stmt is block.stmts[-1])
        del self.scope[in_scope:]

    def visit_stmt(self, stmt: A.Stmt, dead: bool = False) -> None:
        if isinstance(stmt, A.Block):
            self.visit_block(stmt, dead)
        elif isinstance(stmt, A.DeclStmt):
            for decl in stmt.decls:
                self.visit_decl(decl)
        elif isinstance(stmt, A.ExprStmt):
            self.visit_discarded(stmt.expr)
        elif isinstance(stmt, A.If):
            self.visit_if(stmt)
        elif isinstance(stmt, _LOOPS):
            self.visit_loop(stmt)
        elif isinstance(stmt, _LEAVES):
            self.visit_leave(stmt, dead)
        else:
            raise CLCompileError(f"codegen: unhandled statement {type(stmt).__name__}", stmt.line, stmt.col)

    def visit_discarded(self, expr: A.Expr) -> None:
        """An expression evaluated for what it does (its value is
        computed all the same if it can fault)."""
        self.unused = expr
        code = self.visit_expr(expr)
        if code and not code.isidentifier():
            self.emit(code)

    def visit_leave(self, stmt: A.Stmt, dead: bool) -> None:
        """``break``, ``continue``, ``return``: the active lanes go."""
        value = self.visit_expr(stmt.value) if getattr(stmt, "value", None) is not None else None
        self.flush()
        if isinstance(stmt, A.Continue):
            k = self.loop_stack[-1]
            self.emit(f"_mcn{k}, _mncn{k} = _mcn{k} | _m, _mncn{k} + _mn")
        elif isinstance(stmt, A.Return):
            if value is not None and self.returns == 0 and not self.loop_stack:
                # No lane has returned yet, so no lane's value is lost.
                self.emit("# merge elided: first return")
                self.emit(f"{self.retv} = {value}")
            elif value is not None:
                self.merge_return(value)
            self.returns += 1
            if self.loop_stack:
                self.emit("_ret = _ret | _m")
        if not dead:
            self.emit("_m = _np.zeros_like(_m)")
            self.emit("_mn = 0")

    def merge_return(self, value: str) -> None:
        value = self.hold(value)
        self.emit("# merge kept: lanes that returned earlier keep their value")
        self.emit(f"{self.retv} = {value} if _mn == _w else _rt.merge(_m, {value}, {self.retv})")

    def visit_decl(self, decl: A.VarDecl) -> None:
        sym: Symbol = decl.symbol
        if sym.kind == "array":
            elem = sym.type.pointee
            if sym.address_space == "local":
                self.emit(f"{sym.slot} = _ctx.local_array('{sym.slot}', '{elem.dtype}', {sym.array_size})")
            else:
                self.emit(f"{sym.slot} = _rt.private_array(_ctx, '{elem.dtype}', {sym.array_size})")
            return
        v = self.visit_expr(decl.init) if decl.init is not None else self.const(sym.type.dtype, 0)
        self.declare(sym, v, decl.init)

    def declare(self, sym: Symbol, code: str, value: Optional[A.Expr]) -> None:
        """``sym = code`` starts the variable's life (an inlined one's per call): no merge."""
        self.emit(f"{sym.slot} = {code}")
        self.forget(sym.slot)
        for loop in self.loops:
            loop.invariant.discard(sym.slot)
        self.decl_depth[sym.slot] = len(self.frames)
        if _is_value(sym):
            self.scope.append(sym)
            self.candidates.add(sym.slot)
            self.stores.append((sym.slot, self.does(value).pure, self.reads(value), False))

    @contextlib.contextmanager
    def suite(self, head: str):
        """The indented suite of the Python statement ``head``; the
        current block ends with it.  With nothing in it, it is ``pass``
        — or, for ``if _mn:``, which only skips work, nothing at all."""
        self.emit(head)
        first = len(self.lines)
        self.indent += 1
        yield
        self.flush()
        if len(self.lines) == first and head == "if _mn:":
            self.lines.pop()
        elif len(self.lines) == first:
            self.emit("pass")
        self.indent -= 1

    def visit_arm(self, head: str, block: A.Block, frame: _Frame, dead: bool = False) -> None:
        """One arm of an ``if`` under the Python statement ``head``.
        Values computed inside are out of reach once other lanes join."""
        with self.suite(head):
            self.frames.append(frame)
            outside = dict(self.avail)
            self.visit_block(block, dead)
            self.avail = {key: entry for key, entry in self.avail.items() if outside.get(key) is entry}
            self.frames.pop()

    def visit_if(self, stmt: A.If) -> None:
        c = self.visit_expr(stmt.cond)
        k = self.label()
        self.flush()
        then_frame = (f"at the else of if {k}" if stmt.els else f"after if {k}", stmt.live_else)
        else_frame = (f"after if {k}", stmt.live_after)
        uniform = self.uniform_note(stmt.cond)
        if uniform is not None:
            self.visit_arm(f"if {c}:{uniform}", stmt.then, then_frame)
            if stmt.els is not None:
                self.visit_arm("else:", stmt.els, else_frame)
            return
        # Lanes an arm removes for good (they return, or break/continue a
        # loop around the if) must stay removed after it.
        restores = not any(
            self.does(arm).returns or _binds(arm, (A.Break, A.Continue)) for arm in (stmt.then, stmt.els) if arm
        )
        leaves = stmt.els is None and _always_leaves(stmt.then)
        if restores:
            self.emit(f"_msv{k}, _mnsv{k} = _m, _mn")
        if restores and stmt.els is None:
            self.emit(f"_m, _mn = _rt.restrict(_m, _mn, {c})")
        else:
            self.emit(f"_m, _mn, _mel{k}, _mnel{k} = _rt.split(_m, _mn, {c})")
        self.visit_arm("if _mn:", stmt.then, then_frame, dead=leaves)
        if stmt.els is not None:
            if not restores:
                self.emit(f"_mth{k}, _mnth{k} = _m, _mn")
            self.emit(f"_m, _mn = _mel{k}, _mnel{k}")
            self.visit_arm("if _mn:", stmt.els, else_frame)
        if restores:
            self.emit(f"_m, _mn = _msv{k}, _mnsv{k}  # mask restored: if {k} parks nobody for good")
        elif stmt.els is not None:
            self.emit(f"_m, _mn = _mth{k} | _m, _mnth{k} + _mn")
        elif leaves:
            self.emit(f"_m, _mn = _mel{k}, _mnel{k}  # the then-arm of if {k} always leaves")
        else:
            self.emit(f"_m, _mn = _m | _mel{k}, _mn + _mnel{k}")
        if id(stmt) in self.retiring:
            self.retire(k)

    def retire(self, k: int) -> None:
        """The lanes ``if k`` returned never run again: gather every
        per-lane value in scope down to the survivors, once, with the
        machinery of a loop's compaction (``scatter`` is ``None``: nothing
        follows the kernel, so nothing is expanded), and run on with an
        all-true mask.  Values numbered before it have the old width."""
        names = "".join(f", {sym.slot}" for sym in self.scope) + (", _ret" if self.needs_ret else "")
        self.emit(f"if _mn < _w:  # lanes retired: if {k} returns them for good")
        self.emit(f"    _m{names} = _rt.compact(_ctx, None, None, _m{names})[1{':' if names else ''}]")
        self.emit("    _w = _mn")
        self.avail = {}

    def visit_loop(self, stmt) -> None:
        """``while``, ``do``/``while`` and ``for`` share one shape: the
        Python loop runs while any lane is active; the condition narrows
        the mask at the head (``do``: at the tail) of each iteration."""
        in_scope = len(self.scope)
        if isinstance(stmt, A.For) and stmt.init is not None:
            self.visit_stmt(stmt.init)
        k = self.label()
        state = f"_cp{k}"
        does = self.does(stmt)
        carried = self._carried(stmt) if does.group_state is None else None
        self.flush()
        uniform = self.uniform_value(stmt.cond) and not does.returns and not _binds(stmt.body, A.Break)
        loop = _Loop(k, uniform, set(self.decl_depth) - does.writes, self.indent)
        at = len(self.lines)  # the hoisted values' lines go here; two of compaction's wait for them
        self.lines.append("")
        self.emit(f"# loop {k}: " + ("compactable" if does.group_state is None else f"masked ({does.group_state})"))
        self.emit(f"_msv{k}, _mnsv{k} = _m, _mn")
        if carried:
            self.emit("")
        self.emit("while _mn:")
        self.indent += 1
        self.avail = {}  # every iteration recomputes; compaction changes the width
        if carried:
            self.emit("if _w > _rt.COMPACT_MIN_LANES and _mn <= _rt.COMPACT_OCCUPANCY * _w:")
            self.emit("")
            self.emit("    _w = _mn")
        self.frames.append((f"after loop {k}", stmt.live_after))
        self.loops.append(loop)

        def narrow_by_condition() -> None:
            if stmt.cond is None:
                return
            c = self.visit_expr(stmt.cond)
            self.flush()
            uniform = self.uniform_note(stmt.cond)
            if uniform is not None:
                self.emit(f"if not {c}: break{uniform}")
                return
            self.emit(f"_m, _mn = _rt.restrict(_m, _mn, {c})")
            if not isinstance(stmt, A.DoWhile):
                self.emit("if not _mn: break")

        if not isinstance(stmt, A.DoWhile):
            narrow_by_condition()
        continues = _binds(stmt.body, A.Continue)
        if continues:
            self.emit(f"_mcn{k}, _mncn{k} = _np.zeros_like(_m), 0")
            self.frames.append((f"at the continue target of loop {k}", stmt.live_continue))
        self.loop_stack.append(k)
        self.visit_block(stmt.body)
        self.loop_stack.pop()
        self.flush()
        if continues:
            self.frames.pop()
            self.emit(f"_m, _mn = _m | _mcn{k}, _mn + _mncn{k}")
            self.avail = {}
        if isinstance(stmt, A.DoWhile):
            narrow_by_condition()
        elif isinstance(stmt, A.For) and stmt.step is not None:
            with self.suite("if _mn:"):
                self.visit_discarded(stmt.step)
        self.frames.pop()
        self.loops.pop()
        self.indent -= 1
        if carried:
            carried += [(name, False) for name in loop.gathered]
            names = ", ".join(name for name, _ in carried)
            flags = f"_sc{k}"  # which of them the exit scatters back
            self.lines[at + 3] += f"{state}, {flags} = None, ({', '.join(str(flag) for _, flag in carried)},)"
            self.lines[at + 6] += f"    {state}, _m, {names} = _rt.compact(_ctx, {state}, {flags}, _m, {names})"
            self.emit(f"if {state} is not None:")
            self.emit(f"    _w, {names} = _rt.expand(_ctx, {state}, {flags}, {names})")
        self.lines[at : at + 1] = loop.pre
        if does.returns:
            self.emit(f"_m = _msv{k} & ~_ret")
            self.emit("_mn = _rt.count(_m)")
        else:
            self.emit(f"_m, _mn = _msv{k}, _mnsv{k}  # mask restored: loop {k} parks nobody for good")
        self.avail = {}
        del self.scope[in_scope:]

    def _carried(self, stmt) -> List[Tuple[str, bool]]:
        """What a compaction of this loop gathers: every per-lane
        variable in scope plus, if lanes return inside it, the return
        state, each with whether the loop's exit must scatter it back
        (assigned in the loop and read after it) or can simply restore
        the full-width value."""
        does = self.does(stmt)  # a ``for``'s init writes only its own variables
        carried = [
            (sym.slot, sym.slot in does.writes and sym.slot in stmt.live_after) for sym in self.scope
        ]
        if does.returns:
            carried.append(("_ret", True))
            if not self.is_void:
                carried.append(("_retv", True))
        return carried

    # -- expressions ---------------------------------------------------------
    def visit_expr(self, expr: A.Expr) -> str:
        """Python code for the value of ``expr``.  What has an effect is
        emitted on the way, in C's order; the code returned only
        computes, so the caller may nest it in a larger expression."""
        method = getattr(self, f"gen_{type(expr).__name__}", None)
        if method is None:
            raise CLCompileError(f"codegen: unhandled expression {type(expr).__name__}", expr.line, expr.col)
        does = self.does(expr)
        if does.effects or isinstance(expr, _ATOMS):
            return method(expr)
        # Local value numbering.  The dry run finds out which values are
        # reused (``named``); the real one gives exactly those a name.  A
        # value hoisted before the innermost loop is numbered there.
        dry, me, loop = self.facts is None, self.key(expr), self.hoist_to(expr)
        key = None if dry else self.facts.canon[me]
        avail = self.avail if loop is None else loop.hoisted
        if dry or key not in avail:
            charged = self.pending
            code = method(expr) if loop is None else self.hoist(loop, expr, method)
            if dry:  # the key *is* the code generated without numbering
                key = self.canon[me] = code
            elif me in self.facts.named and loop is None:
                code = self.hold(code)
            if key not in avail:
                does = does._replace(reads=self.reads(expr)) if self.subst else does
                avail[key] = (me, code, self.pending - charged, does)
                return code
        first, code, weight, _ = avail[key]
        self.named.update((first, me))
        if not dry:
            self.pending += weight  # computed once, charged every time
        return code

    def hoist_to(self, expr: A.Expr) -> Optional[_Loop]:
        """The loop to compute ``expr`` before: the innermost, if uniform and ``expr`` invariant."""
        loop = self.loops[-1] if self.loops and self.lines is not self.loops[-1].pre else None
        if loop is None or not loop.uniform or isinstance(expr, _ATOMS) or id(expr) in self.no_hoist:
            return None
        return loop if self.does(expr).pure and self.reads(expr) <= loop.invariant else None

    def hoist(self, loop: _Loop, expr: A.Expr, method) -> str:
        """``expr`` computed before ``loop``, numbered among the values there."""
        outer = self.lines, self.indent, self.avail
        self.lines, self.indent, self.avail = loop.pre, loop.indent, loop.hoisted
        name = self.temp(method(expr))
        self.lines[-1] += f"  # hoisted: invariant in loop {loop.k}"
        self.lines, self.indent, self.avail = outer
        loop.gathered += [] if self.uniform_value(expr) else [name]
        return name

    def operands(self, exprs: List[A.Expr]) -> List[str]:
        """The code of each of ``exprs``, evaluated left to right: a
        value is held in a temporary if a later one has effects."""
        codes = []
        for i, expr in enumerate(exprs):
            code = self.visit_expr(expr)
            if any(self.does(later).effects for later in exprs[i + 1 :]):
                code = self.hold(code)
            codes.append(code)
        return codes

    def under(self, cond: str, expr: A.Expr) -> str:
        """``expr`` where only the lanes on which ``cond`` holds
        evaluate it in C: its loads are checked and performed for those
        lanes only (everything else happens on every active lane)."""
        if not self.does(expr).loads:
            return self.visit_expr(expr)
        k = self.label()
        outer = self.lanes
        self.emit(f"_g{k} = {outer[0]} & {cond}")
        self.emit(f"_gn{k} = _rt.count(_g{k})")
        self.lanes = (f"_g{k}", f"_gn{k}")
        code = self.visit_expr(expr)
        self.lanes = outer
        return code

    def gen_IntLiteral(self, expr: A.IntLiteral) -> str:
        return self.const(expr.type.dtype, expr.value)

    def gen_FloatLiteral(self, expr: A.FloatLiteral) -> str:
        return self.const(expr.type.dtype, expr.value)

    def gen_BoolLiteral(self, expr: A.BoolLiteral) -> str:
        return self.const("bool", bool(expr.value))

    def gen_VarRef(self, expr: A.VarRef) -> str:
        return self.name(expr.symbol)

    def _cast(self, code: str, dtype: str, uniform: bool = False) -> str:
        """``code`` as ``dtype``: of a uniform value, ``vecrt.cast``'s conversion of a scalar."""
        self.pending += W_ALU
        return f"_np.{dtype}({code})" if uniform else f"_rt.cast({code}, '{dtype}')"

    def gen_ImplicitCast(self, expr: A.ImplicitCast) -> str:
        return self._cast(self.visit_expr(expr.expr), expr.target_type.dtype, self.uniform_value(expr.expr))

    gen_Cast = gen_ImplicitCast

    def gen_UnaryOp(self, expr: A.UnaryOp) -> str:
        if expr.op in ("++", "--"):
            return self._incdec(expr, prefix=True)
        if expr.op == "&":
            raise CLCompileError(
                "address-of is only supported as the first argument of atomics",
                expr.line,
                expr.col,
            )
        v = self.visit_expr(expr.operand)
        if expr.op == "+":
            return v
        if expr.op == "!":  # of a bool
            return f"(~{v})"
        self.pending += W_ALU
        return f"({expr.op}{v})"

    def gen_PostfixOp(self, expr: A.PostfixOp) -> str:
        return self._incdec(expr, prefix=False)

    def _incdec(self, expr, prefix: bool) -> str:
        """``x++`` / ``++x`` (``x`` a variable or a buffer element)."""
        target = expr.operand
        used = expr is not self.unused
        op = "+" if expr.op == "++" else "-"
        one = self.const(target.type.dtype, 1)
        self.pending += W_ALU
        if isinstance(target, A.VarRef):
            old = self.temp(target.symbol.slot) if used and not prefix else target.symbol.slot
            new = f"({old} {op} {one})"
            if used and prefix:
                new = self.hold(new)
            self._store_var(target.symbol, new, None, (op, one, True))
        else:
            sym, idx = target.base.symbol, self.hold(self.visit_expr(target.index))
            old = self._load_code(sym, idx)
            if used:
                old = self.hold(old)
            new = f"({old} {op} {one})"
            if used and prefix:
                new = self.hold(new)
            self._emit_store(sym, idx, new)
        return (new if prefix else old) if used else ""

    def _binary(self, op: str, a: str, b: str, result: ScalarType, head: bool = False) -> str:
        """``a op b``; ``head``: ``a`` is the value of an operator nobody
        else holds (:meth:`heads_chain`), updated in place if ``op`` has
        an augmented form."""
        self.pending += W_DIV if op in ("/", "%") else W_ALU
        if not _bare(op, result):
            return f"_rt.{_RT_OP[op]}({a}, {b})"
        op = _LOGICAL_OP.get(op, op)
        if not head or op not in _IN_PLACE:
            return f"({a} {op} {b})"
        # sema gave both operands the result's type, so the update keeps it
        if not a.isidentifier():
            self._temp += 1
            self.emit(f"_e{self._temp} = {a}  # in place: the chain's next operators reuse this array")
            a = f"_e{self._temp}"
        self.emit(f"{a} {op}= {b}")
        return a

    def heads_chain(self, lhs: A.Expr) -> bool:
        """May the operator whose left operand is ``lhs`` update that
        value in place: is it an :func:`_operator` (not a cast, a load,
        a call or a variable) that value numbering does not read again?
        Never in the dry run, whose code is the canonical form."""
        return self.facts is not None and self.key(lhs) not in self.facts.named and _operator(lhs) \
            and self.hoist_to(lhs) is None

    def gen_BinaryOp(self, expr: A.BinaryOp) -> str:
        if expr.op == ",":
            unused = expr is self.unused
            self.visit_discarded(expr.lhs)
            if unused:
                self.unused = expr.rhs
            return self.visit_expr(expr.rhs)
        head = self.heads_chain(expr.lhs)
        if expr.op not in ("&&", "||"):
            a, b = self.operands([expr.lhs, expr.rhs])
            return self._binary(expr.op, a, b, expr.type, head)
        a = self.visit_expr(expr.lhs)
        rhs = self.does(expr.rhs)
        if rhs.loads or rhs.effects:
            a = self.hold(a)
        b = self.under(a if expr.op == "&&" else f"~{a}", expr.rhs)
        return self._binary(expr.op, a, b, expr.type, head)

    def gen_Ternary(self, expr: A.Ternary) -> str:
        c = self.visit_expr(expr.cond)
        if any(self.does(arm).loads or self.does(arm).effects for arm in (expr.then, expr.els)):
            c = self.hold(c)
        a = self.under(c, expr.then)
        if self.does(expr.els).effects:
            a = self.hold(a)
        b = self.under(f"~{c}", expr.els)
        self.pending += W_ALU
        if self.uniform_note(expr.cond) is not None:  # picks an arm's own value: see _owners
            return f"({a} if {c} else {b})"
        return f"_np.where({c}, {a}, {b})"

    # -- assignment ------------------------------------------------------------
    def _store_var(
        self, sym: Symbol, code: str, value: Optional[A.Expr], step: Optional[Tuple[str, str, bool]] = None
    ) -> None:
        """``sym = code`` for the active lanes (``value`` is the
        expression stored, ``None`` for one that is uniform whenever
        ``sym`` is; ``step`` is ``(op, u, u is 1)`` when ``code`` is
        ``sym op u``, ``op`` one of ``+ -`` in ``sym``'s type).  Lanes
        parked by a construct entered since ``sym`` was declared keep the
        old value only if they can still read it where they rejoin."""
        slot = sym.slot
        parked = self.frames[self.decl_depth[slot] :]
        where = next((what for what, live in parked if slot in live), None)
        self.stores.append((slot, self.does(value).pure, self.reads(value), where is not None))
        self.forget(slot)
        if where is not None and step is not None and self.facts is not None and slot in self.facts.owners:
            op, u, unit = step
            u = self.hold(u)
            self.emit(f"# merge in place: {slot} live {where}, owns its array")
            self.emit(f"{slot} {op}= {u} if _mn == _w else {'_m' if unit else f'{u} * _m'}")
            return
        if where is not None:
            code = self.hold(code)
            self.emit(f"# merge kept: {slot} live {where}")
            self.emit(f"{slot} = {code} if _mn == _w else _rt.merge(_m, {code}, {slot})")
            return
        if parked:
            self.emit(f"# merge elided: {slot} dead {parked[-1][0]}")
        self.emit(f"{slot} = {code}")

    def _load_code(self, sym: Symbol, idx: str, lanes: Tuple[str, str] = ("_m", "_mn")) -> str:
        self.pending += W_MEM
        space, name = _space_of(sym), self.name(sym)
        if space in ("global", "constant"):
            return f"_rt.load_global({lanes[1]}, {lanes[0]}, {name}, {idx})"
        return f"_rt.load_{space}(_ctx, {lanes[1]}, {lanes[0]}, {name}, {idx})"

    def _emit_store(self, sym: Symbol, idx: str, code: str) -> None:
        self.pending += W_MEM
        self.forget()
        space, name = _space_of(sym), self.name(sym)
        if space in ("global", "constant"):
            self.emit(f"_rt.store_global(_mn, _m, {name}, {idx}, {code})")
        else:
            self.emit(f"_rt.store_{space}(_ctx, _mn, _m, {name}, {idx}, {code})")

    def gen_Index(self, expr: A.Index) -> str:
        return self._load_code(expr.base.symbol, self.visit_expr(expr.index), self.lanes)

    def gen_Assign(self, expr: A.Assign) -> str:
        used = expr is not self.unused
        target = expr.target
        if isinstance(target, A.VarRef):
            value = self.visit_expr(expr.value)
            step = None
            if expr.op in ("+=", "-=") and expr.common_type == target.type:
                unit = isinstance(expr.value, A.IntLiteral) and expr.value.value == 1
                step = (expr.op[0], value, unit)
            if expr.op != "=":
                value = self._compound(target.symbol.slot, value, expr)
            self._store_var(target.symbol, value, expr.value, step)
            return self.temp(target.symbol.slot) if used else ""
        value, idx = self.operands([expr.value, target.index])
        if expr.op != "=":
            idx = self.hold(idx)
            value = self._compound(self._load_code(target.base.symbol, idx), value, expr)
        if used:
            value = self.hold(value)
        self._emit_store(target.base.symbol, idx, value)
        return value if used else ""

    def _compound(self, cur: str, value: str, expr: A.Assign) -> str:
        """``cur op value`` in the common type, converted back."""
        common, target = expr.common_type, expr.target.type
        if common != target:
            cur = self._cast(cur, common.dtype)
        code = self._binary(expr.op[:-1], cur, value, common)
        return self._cast(code, target.dtype) if common != target else code

    # -- calls -------------------------------------------------------------------
    def gen_Call(self, expr: A.Call) -> str:
        if getattr(expr, "convert_type", None) is not None:
            return self._cast(self.visit_expr(expr.args[0]), expr.convert_type.dtype, self.uniform_value(expr.args[0]))
        builtin = getattr(expr, "builtin", None)
        if builtin is None:
            if expr.func.name in self.inlinable and (self.facts is None or all(loop.uniform for loop in self.loops)):
                return self.inline(expr)
            args = "".join(f", {code}" for code in self.operands(expr.args))
            self.forget()  # the callee may store
            return self.hold(f"_fn_{expr.func.name}(_ctx, _m, _mn{args})")
        if builtin.kind == "workitem":
            if builtin.name == "get_work_dim":
                return "_ctx.get_work_dim()"
            d = self.visit_expr(expr.args[0])
            dim = expr.args[0]
            while isinstance(dim, (A.Cast, A.ImplicitCast)):
                dim = dim.expr
            if isinstance(dim, A.IntLiteral):  # nothing to collapse
                return f"_ctx.{builtin.name}({dim.value})"
            return f"_ctx.{builtin.name}(_rt.uniform({d}, {self.lanes[0]}))"
        if builtin.kind == "barrier":
            self.pending += W_ALU  # a barrier is not free
            self.emit("_rt.barrier(_ctx, _m)")
            return ""
        if builtin.kind == "math":
            args = ", ".join(self.operands(expr.args))
            self.pending += builtin.weight
            fn = self.consts.setdefault(f"_impls['{builtin.impl}']", f"_f_{builtin.impl}")
            return f"{fn}({args})"
        if builtin.kind == "atomic":
            return self._gen_atomic(expr, builtin)
        raise CLCompileError(  # pragma: no cover
            f"codegen: builtin kind {builtin.kind!r}", expr.line, expr.col
        )

    def inline(self, expr: A.Call) -> str:
        """A call of a helper of :func:`_inline_shape`, generated in place: its value's code."""
        fn: FunctionInfo = expr.func
        args = self.operands(expr.args)
        stmts, written, first = fn.node.body.stmts, self.does(fn.node.body).writes, self.inlinable[fn.name]
        saved = self.subst, self.site, self.loop_stack, self.returns, self.retv, self.lanes, len(self.scope)
        t, self.subst, self.site = self.label(), dict(self.subst), self.site + (id(expr),)
        self.retv, self.loop_stack, self.returns, self.lanes = f"_rv{t}", [], 0, ("_m", "_mn")
        self.emit(f"# inlined: {fn.name}")
        for sym, arg, code in zip(fn.param_symbols, expr.args, args):  # an argument reads no parameter
            if not _is_value(sym) or isinstance(arg, _ATOMS) and sym.slot not in written:
                self.subst[sym.slot] = code, self.reads(arg)
            else:
                self.declare(sym, code, arg)
        narrowed = any(isinstance(s, A.If) for s in stmts[:first])
        if narrowed:  # guards split the mask as the call did
            self.emit(f"_msv{t}, _mnsv{t}, {self.retv} = _m, _mn, {self.const(fn.return_type.dtype, 0)}")
        for stmt in stmts[:first]:
            self.visit_stmt(stmt)
        value = self.select(stmts[first:], t)
        if narrowed:
            self.flush()
            self.merge_return(value)
            self.emit(f"_m, _mn = _msv{t}, _mnsv{t}  # mask restored: {fn.name} inlined")
            value = self.retv
        self.subst, self.site, self.loop_stack, self.returns, self.retv, self.lanes, in_scope = saved
        del self.scope[in_scope:]
        return value if narrowed else self.temp(value)

    def select(self, stmts: List[A.Stmt], t: int) -> str:
        """The value of an inlined body's :func:`_selectable` guards and what follows, run on
        every lane, one select per guard; a lane is charged for the value of the guard it
        takes, or for what follows: each guard counts the lanes that take it."""
        guards, marks = [], []  # marks: self.pending where a guard splits the lanes, and after its value
        snapshot = self.temp if any(self.does(stmt).writes for stmt in stmts) else self.hold
        for stmt in stmts:
            if isinstance(stmt, A.If):
                guards.append([stmt.cond, snapshot(self.visit_expr(stmt.cond))])
                marks.append(self.pending)
                guards[-1].append(snapshot(self.visit_expr(stmt.then.stmts[0].value)))
                marks.append(self.pending)
            elif isinstance(stmt, A.Return):
                final, value = stmt.value, self.visit_expr(stmt.value)
            else:
                self.visit_stmt(stmt)
        if not guards:
            return value
        marks.append(self.pending)
        self.flush(marks[0])
        self.emit(f"_mnin{t} = _mn  # guards selected: every lane runs on, each is charged as it returns")
        for j, (node, cond, _) in enumerate(guards):
            if j:  # the lanes that reach guard j + 1
                self.emit(f"_mr{t}, _mnr{t} = {f'_mr{t}' if j > 1 else '_m'} & ~{guards[j - 1][1]}, _mn")
            lanes = f"_mr{t} & {cond}" if j else f"{cond} if _mn == _w and {cond}.ndim else _m & {cond}"
            lanes = f"_mn if {cond} else 0" if self.uniform_note(node) else f"_rt.count({lanes})"
            self.emit(f"_mn = {lanes}  # lanes returning at guard {j + 1}")
            self.flush(marks[2 * j + 1] - marks[2 * j])
            self.emit(f"_mn = {f'_mnr{t}' if j else f'_mnin{t}'} - _mn")
            self.flush(marks[2 * j + 2] - marks[2 * j + 1])
        self.emit(f"_mn = _mnin{t}")
        if self.heads_chain(final) and not any(self.uniform_note(node) for node, *_ in guards):
            value = self.hold(value)  # an array nobody else holds (or a scalar): written into
            self.avail = {key: entry for key, entry in self.avail.items() if entry[1] != value}
            for _, cond, result in reversed(guards):
                self.emit(f"if {value}.ndim: _np.copyto({value}, {result}, where={cond})")
                self.emit(f"else: {value} = _np.where({cond}, {result}, {value})")
            return value
        for node, cond, result in reversed(guards):
            pick = "({1} if {0} else {2})" if self.uniform_note(node) else "_np.where({0}, {1}, {2})"
            value = pick.format(cond, result, value)
        return value

    def _gen_atomic(self, expr: A.Call, builtin) -> str:
        ptr = expr.args[0]
        used = expr is not self.unused
        if isinstance(ptr, A.UnaryOp) and ptr.op == "&" and isinstance(ptr.operand, A.Index):
            base_sym = ptr.operand.base.symbol
            idx, *vals = self.operands([ptr.operand.index, *expr.args[1:]])
        elif isinstance(ptr, A.VarRef) and isinstance(ptr.type, PointerType):
            base_sym = ptr.symbol
            idx, *vals = [self.const("int64", 0), *self.operands(expr.args[1:])]
        else:
            raise CLCompileError(
                f"{expr.name}: first argument must be &buf[i] or a pointer variable",
                expr.line,
                expr.col,
            )
        space = _space_of(base_sym)
        kind = "global" if space in ("global", "constant") else space
        self.pending += W_ATOMIC
        self.forget()
        args = ", ".join([self.name(base_sym), idx, *vals])
        call = f"_rt.atomic(_ctx, _mn, _m, {used}, '{builtin.name}', '{kind}', {args})"
        if used:
            return self.hold(call)
        self.emit(call)
        return ""


MODULE_PRELUDE = '''\
"""Generated by repro.clc.codegen — do not edit."""
import numpy as _np
from repro.clc import vecrt as _rt
from repro.clc.builtins import NUMPY_IMPLS as _impls
'''


def generate_module(analyzed: AnalyzedProgram) -> str:
    """Generate the Python module source for an analyzed program."""
    consts: Dict[str, str] = {}
    summaries: Dict[int, _Summary] = {}
    called = set().union(*(info.callees for info in analyzed.functions.values()))
    for info in analyzed.functions.values():  # an inlined body needs its own
        _Liveness(summaries).run(info.node)
    inlinable = {
        name: shape for name, info in analyzed.functions.items()
        if (shape := _inline_shape(info, summaries)) is not None
    }
    functions = []
    for info in analyzed.functions.values():
        dry = FunctionCodegen(info, consts, summaries, called, inlinable)
        dry.generate()
        functions.append(FunctionCodegen(info, consts, summaries, called, inlinable, dry.collected()).generate())
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
