"""Differential testing: the vector backend against the reference
interpreter on randomly generated programs.

Integer arithmetic is exact (wraparound included), so any mismatch is a
genuine backend bug, not floating-point noise.
"""

import hashlib
import json
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clc import compile_program, execute_kernel, vecrt


# ----------------------------------------------------------------------
# random expression generator (returns OpenCL C source text)
# ----------------------------------------------------------------------
_INT_BIN_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"]
_CMP_OPS = ["==", "!=", "<", ">", "<=", ">="]


def _expr_strategy():
    leaves = st.one_of(
        st.integers(min_value=-100, max_value=100).map(lambda v: f"({v})"),
        st.sampled_from(["a", "b", "c", "gid"]),
    )

    def extend(children):
        binary = st.tuples(children, st.sampled_from(_INT_BIN_OPS), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        )
        compare = st.tuples(children, st.sampled_from(_CMP_OPS), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        )
        unary = st.tuples(st.sampled_from(["-", "~", "!"]), children).map(
            lambda t: f"({t[0]}{t[1]})"
        )
        ternary = st.tuples(children, children, children).map(
            lambda t: f"(({t[0]} > 0) ? {t[1]} : {t[2]})"
        )
        call = st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"
        )
        return st.one_of(binary, compare, unary, ternary, call)

    return st.recursive(leaves, extend, max_leaves=18)


@given(
    expr=_expr_strategy(),
    a=st.integers(min_value=-1000, max_value=1000),
    b=st.integers(min_value=-1000, max_value=1000),
    c=st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=150, deadline=None)
def test_random_int_expressions_match(expr, a, b, c):
    source = f"""
    __kernel void f(__global int *out, const int a, const int b, const int c) {{
        int gid = (int)get_global_id(0);
        out[gid] = {expr};
    }}
    """
    prog = compile_program(source)
    n = 8
    out_v = np.zeros(n, dtype=np.int32)
    out_i = np.zeros(n, dtype=np.int32)
    execute_kernel(prog.kernel("f"), (n,), [out_v, a, b, c], backend="vector")
    execute_kernel(prog.kernel("f"), (n,), [out_i, a, b, c], backend="interp")
    np.testing.assert_array_equal(out_v, out_i)


@given(
    thresholds=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4),
    limit=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_random_divergent_loops_match(thresholds, limit):
    """Loops whose trip counts and branches vary per work-item."""
    body = "".join(
        f"if (x > {t}) {{ acc += {i + 1}; x -= {t}; continue; }}\n"
        for i, t in enumerate(thresholds)
    )
    source = f"""
    __kernel void g(__global int *out) {{
        int gid = (int)get_global_id(0);
        int x = gid * 3 + 1;
        int acc = 0;
        int steps = 0;
        while (steps < {limit}) {{
            steps++;
            {body}
            acc -= 1;
            if (acc < -10) break;
        }}
        out[gid] = acc * 100 + steps;
    }}
    """
    prog = compile_program(source)
    n = 16
    out_v = np.zeros(n, dtype=np.int32)
    out_i = np.zeros(n, dtype=np.int32)
    execute_kernel(prog.kernel("g"), (n,), [out_v], backend="vector")
    execute_kernel(prog.kernel("g"), (n,), [out_i], backend="interp")
    np.testing.assert_array_equal(out_v, out_i)


@given(
    scale=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    shift=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_float_kernels_match_closely(scale, shift):
    source = """
    __kernel void h(__global float *out, const float s, const float t) {
        int gid = (int)get_global_id(0);
        float x = (float)gid * 0.25f;
        float y = s * x + t;
        for (int k = 0; k < 4; k++) {
            y = y * 0.5f + sqrt(fabs(y)) - 0.1f;
        }
        out[gid] = y;
    }
    """
    prog = compile_program(source)
    n = 32
    out_v = np.zeros(n, dtype=np.float32)
    out_i = np.zeros(n, dtype=np.float32)
    execute_kernel(prog.kernel("h"), (n,), [out_v, scale, shift], backend="vector")
    execute_kernel(prog.kernel("h"), (n,), [out_i, scale, shift], backend="interp")
    np.testing.assert_allclose(out_v, out_i, rtol=1e-6, atol=1e-6)


@given(
    data=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64),
)
@settings(max_examples=60, deadline=None)
def test_atomic_histogram_end_state_matches(data):
    source = """
    __kernel void hist(__global const int *data, __global int *bins, const int n) {
        int gid = (int)get_global_id(0);
        if (gid < n) atomic_add(&bins[data[gid]], 1);
    }
    """
    prog = compile_program(source)
    arr = np.array(data, dtype=np.int32)
    n = len(data)
    gsize = ((n + 7) // 8) * 8
    bins_v = np.zeros(8, dtype=np.int32)
    bins_i = np.zeros(8, dtype=np.int32)
    execute_kernel(prog.kernel("hist"), (gsize,), [arr, bins_v, n], backend="vector")
    execute_kernel(prog.kernel("hist"), (gsize,), [arr, bins_i, n], backend="interp")
    np.testing.assert_array_equal(bins_v, bins_i)


@given(
    n=st.integers(min_value=1, max_value=300),
    chunk=st.sampled_from([4, 16, 64, 256]),
)
@settings(max_examples=40, deadline=None)
def test_chunking_invariance(n, chunk):
    """Results and op counts must not depend on the chunk size."""
    source = """
    __kernel void f(__global int *out, const int n) {
        int gid = (int)get_global_id(0);
        if (gid >= n) return;
        int acc = 0;
        for (int k = 0; k < gid % 7; k++) acc += k * k;
        out[gid] = acc;
    }
    """
    prog = compile_program(source)
    gsize = ((n + 3) // 4) * 4
    out_a = np.zeros(gsize, dtype=np.int32)
    out_b = np.zeros(gsize, dtype=np.int32)
    s_a = execute_kernel(prog.kernel("f"), (gsize,), [out_a, n], local_size=(4,), max_lanes=chunk)
    s_b = execute_kernel(prog.kernel("f"), (gsize,), [out_b, n], local_size=(4,), max_lanes=1 << 20)
    np.testing.assert_array_equal(out_a, out_b)
    assert s_a.ops == s_b.ops  # integer-valued weights: exact under any grouping
    assert s_a.work_items == s_b.work_items


# ----------------------------------------------------------------------
# merge elision and lane compaction: the shapes those passes reason about
# ----------------------------------------------------------------------
# The code generator drops ``merge`` where liveness says no parked lane
# reads the old value, and gathers a divergent loop's live lanes once
# occupancy drops.  Both are per-work-item no-ops, so the interpreter
# must agree on every output.  Random blocks fill the holes of one
# template per shape; the compaction floor is lowered so that launches
# of a few lanes sit on both sides of it, and a counter on
# ``vecrt.compact`` proves the gather/scatter path really ran.
_CF_VARS = ("x", "y", "z")
_FLOOR = 4  # lanes; _LANES below straddles it
_LANES = (2, 8, 20)


@pytest.fixture
def compactions(monkeypatch):
    """Lower the compaction floor; count loop compactions per launch (a
    kernel's lane retirement calls ``compact`` with no ``scatter``)."""
    launches = []
    original = vecrt.compact

    def counting(*args):
        if args[2] is not None:
            launches[-1] += 1
        return original(*args)

    monkeypatch.setattr(vecrt, "COMPACT_MIN_LANES", _FLOOR)
    monkeypatch.setattr(vecrt, "compact", counting)
    return launches


class _Gen:
    """Writes statements over ``x``/``y``/``z`` (and whatever block-local
    names are in scope); every loop has its own bounded counter.

    Choices come from a ``random.Random`` seeded by hypothesis: a
    program is a hundred choices, and drawing each one interactively
    costs more than compiling and running it.  A failure prints the
    source, which is what one debugs from anyway.  ``aliases`` adds
    stores that give a variable's array a second name (copies, casts,
    ``?:`` arms, helper arguments and results, the values of ``++`` and
    of assignments) and integer updates: the ones the in-place rules
    rewrite, and the ``/=`` and ``%=`` that end ownership.  It draws from
    the generator only when on, so the other streams (and the golden
    programs) are unchanged."""

    def __init__(self, seed, exits=(), calls=False, atomics=False, aliases=False):
        self.rng = random.Random(seed)
        self.exits = exits  # of "break", "continue", "return"
        self.calls = calls
        self.atomics = atomics
        self.aliases = aliases
        self.names = 0

    def pick(self, *options):
        return self.rng.choice(options)

    def flip(self):
        return self.rng.random() < 0.5

    def fresh(self, prefix):
        self.names += 1
        return f"{prefix}{self.names}"

    def expr(self, scope, depth=2):
        if depth == 0 or self.flip():
            if self.flip():
                return str(self.rng.randint(-9, 9))
            return self.pick("gid", "(int)get_global_id(0)", *scope)
        op = self.pick("+", "-", "*", "&", "|", "^")
        return f"({self.expr(scope, depth - 1)} {op} {self.expr(scope, depth - 1)})"

    def cond(self, scope):
        if self.flip():
            return f"(({self.expr(scope)}) & {self.pick(1, 2, 3)}) == 0"
        return f"{self.expr(scope)} {self.pick('<', '>', '==', '!=')} {self.expr(scope)}"

    def bound(self, scope):
        """A trip count in [0, 9] that differs from lane to lane."""
        return f"(({self.expr(scope, 1)}) * {self.pick(1, 3, 5, 7)} + gid) % {self.pick(3, 6, 10)}"

    def store(self, scope):
        target = self.pick(*_CF_VARS)
        if self.calls and self.flip():
            return f"{target} = helper({self.expr(scope)}, {self.expr(scope)});"
        if self.atomics and self.flip():
            return f"atomic_add(&bins[({self.expr(scope)}) & 7], {self.expr(scope, 1)});"
        if self.aliases and self.flip():
            return self.alias(target, self.pick(*_CF_VARS), scope)
        kind = self.pick("=", "=", "+=", "^=", "++")
        if kind == "++":
            return f"{target}++;"
        return f"{target} {kind} {self.expr(scope)};"

    def alias(self, target, source, scope):
        """A store to ``target`` that may give ``source``'s array a
        second name, or an update of ``source`` (``x``/``y``/``z``: the
        only names a store may change)."""
        other = self.pick(*scope)
        uniform_select = f"{target} = (a > {self.rng.randint(-5, 9)}) ? {source} : {other};"
        return self.pick(
            f"{target} = {source};",
            f"{target} = (int){source};",
            uniform_select,
            uniform_select,  # half the time it selects ``other``
            f"{target} = ({self.expr(scope, 1)} > 0) ? {other} : {source};",
            f"{target} = {source}{self.pick('++', '--')};",
            f"{target} = {self.pick('++', '--')}{source};",
            f"{target} = ({source} = {self.expr(scope)});",
            f"{target} = ({source} += {self.expr(scope, 1)});",
            f"{target} = same({source});",
            f"{target} = bump({source}, {self.expr(scope, 1)});",
            f"{source} {self.pick('+=', '-=')} {self.pick(1, 1, 3, 'a', other)};",
            f"{source} {self.pick('/=', '%=')} {self.pick(2, 3, '(a & 7)', '(gid & 3)')};",
            f"{source}{self.pick('++', '--')};",
        )

    def exit(self, scope, in_loop):
        allowed = [e for e in self.exits if in_loop or e == "return"]
        if not allowed:
            return self.store(scope)
        word = self.pick(*allowed)
        before = "out[gid] = x;" if word == "return" else ""
        return f"if ({self.cond(scope)}) {{ {self.store(scope)} {before} {word}; }}"

    def loop(self, scope, depth, in_loop, body=None):
        c = self.fresh("i")
        bound = self.bound(scope)
        inner = body if body is not None else self.block(scope + (c,), depth - 1, True)
        form = self.pick("for", "while", "do")
        if form == "for":
            return f"for (int {c} = 0; {c} < {bound}; {c}++) {{ {inner} }}"
        if form == "while":
            return f"int {c} = 0; while ({c} < {bound}) {{ {c}++; {inner} }}"
        return f"int {c} = 0; do {{ {c}++; {inner} }} while ({c} < {bound});"

    def stmt(self, scope, depth, in_loop):
        kinds = ["store", "store", "local", "exit"]
        if depth > 0:
            kinds += ["if", "ifelse", "loop"]
        kind = self.pick(*kinds)
        if kind == "store":
            return self.store(scope)
        if kind == "exit":
            return self.exit(scope, in_loop)
        if kind == "local":
            t = self.fresh("t")
            use = self.pick(*_CF_VARS)
            return f"{{ int {t} = {self.expr(scope)}; {use} += {t} * {self.expr(scope + (t,), 1)}; }}"
        if kind == "loop":
            return f"{{ {self.loop(scope, depth, in_loop)} }}"
        then = self.block(scope, depth - 1, in_loop)
        if kind == "if":
            return f"if ({self.cond(scope)}) {{ {then} }}"
        return f"if ({self.cond(scope)}) {{ {then} }} else {{ {self.block(scope, depth - 1, in_loop)} }}"

    def block(self, scope, depth, in_loop):
        count = self.rng.randint(1, 3)
        return " ".join(self.stmt(scope, depth, in_loop) for _ in range(count))


_HELPER = """
int helper(int a, int b) {
    int r = b;
    for (int k = 0; k < ((a ^ b) & 3); k++) {
        r += a & 15;
        if (r > 20) return r - k;
        if ((r & 1) == 0) continue;
        r ^= k;
    }
    if (a > b) return a - b;
    return r;
}
"""


#: The helpers of ``_Gen(aliases=True)``: one returns its parameter's
#: own array, the other increments its parameter under divergence.
_ALIAS_HELPERS = """
int same(int p) { return p; }
int bump(int p, int g) { if ((g & 1) == 0) p++; if (g > 3) p -= 2; return p + g; }
"""


def _kernel(body, result="x ^ (y * 31) ^ (z * 17)"):
    aliasing = "same(" in body or "bump(" in body
    return f"""{_HELPER if "helper(" in body else ""}{_ALIAS_HELPERS if aliasing else ""}
    __kernel void k(__global int *out, __global int *bins, const int a, const int b) {{
        int gid = (int)get_global_id(0);
        int x = gid * a + 1;
        int y = (gid ^ b) - 3;
        int z = a - b;
        {body}
        out[gid] = {result};
    }}
    """


def _check(source, lanes, a, b, compactions):
    prog = compile_program(source)
    results = []
    for backend in ("vector", "interp"):
        out = np.full(lanes, -77, dtype=np.int32)
        bins = np.zeros(8, dtype=np.int32)
        compactions.append(0)
        execute_kernel(prog.kernel("k"), (lanes,), [out, bins, a, b], backend=backend)
        results.append((out, bins))
    (out_v, bins_v), (out_i, bins_i) = results
    np.testing.assert_array_equal(out_v, out_i, err_msg=source)
    np.testing.assert_array_equal(bins_v, bins_i, err_msg=source)


def _differential(compactions, build, min_fired=1, examples=150):
    """Run ``build(seed) -> (body, result expression)`` on ``examples``
    drawn programs; at least one launch must have compacted
    ``min_fired`` times."""

    @given(seed=st.integers(0, 2**32), lanes=st.sampled_from(_LANES), a=st.integers(-5, 9), b=st.integers(-5, 9))
    @settings(max_examples=examples, deadline=None)
    def run(seed, lanes, a, b):
        body, result = build(seed)
        _check(_kernel(body, result), lanes, a, b, compactions)

    run()
    assert max(compactions) >= min_fired


def test_nested_divergent_loops_with_exits_match(compactions):
    def build(seed):
        g = _Gen(seed, exits=("break", "continue", "return"))
        inner = g.loop(_CF_VARS, 1, True)
        outer_body = f"{g.stmt(_CF_VARS, 1, True)} {{ {inner} }} {g.exit(_CF_VARS, True)} {g.store(_CF_VARS)}"
        return g.loop(_CF_VARS, 2, False, body=outer_body), "x ^ (y * 31) ^ (z * 17)"

    _differential(compactions, build, min_fired=2)


def test_loop_assigned_variables_live_and_dead_after_match(compactions):
    """``x`` is read after the loop, ``y`` is overwritten first (dead at
    the loop's exit), ``z`` is either: scatter, restore, and both."""

    def build(seed):
        g = _Gen(seed, exits=("break",))
        loop = g.loop(_CF_VARS, 2, False)
        after = g.pick("", "z = gid;", "if (x > y) z = 5;")
        return f"{{ {loop} }} y = {g.expr(('x', 'z'))}; {after}", "x ^ (y * 31) ^ (z * 17)"

    _differential(compactions, build)


def test_assignment_under_if_read_after_join_match(compactions):
    def build(seed):
        g = _Gen(seed)
        arms = g.stmt(_CF_VARS, 2, False)
        guarded = f"if ({g.cond(_CF_VARS)}) {{ {g.store(_CF_VARS)} {arms} }}"
        if g.flip():
            guarded += f" else {{ {g.store(_CF_VARS)} }}"
        wrapped = g.loop(_CF_VARS, 1, False, body=guarded) if g.flip() else guarded
        return f"{{ {wrapped} }}", g.pick("x", "y + z", "x ^ (y * 31) ^ (z * 17)")

    _differential(compactions, build)


def test_continue_then_store_to_loop_carried_variable_match(compactions):
    def build(seed):
        g = _Gen(seed, exits=("continue",))
        body = (
            f"{g.store(_CF_VARS)} if ({g.cond(_CF_VARS)}) continue; "
            f"{g.store(_CF_VARS)} {g.exit(_CF_VARS, True)} {g.store(_CF_VARS)}"
        )
        # With only ``x`` read afterwards, ``y`` and ``z`` are dead at the
        # loop's exit and live only at its continue target.
        return f"{{ {g.loop(_CF_VARS, 1, False, body=body)} }}", g.pick("x", "x ^ (y * 31) ^ (z * 17)")

    _differential(compactions, build)


def test_helper_calls_under_partial_mask_match(compactions):
    def build(seed):
        g = _Gen(seed, exits=("break", "continue"), calls=True)
        call = f"if ({g.cond(_CF_VARS)}) {{ x = helper({g.expr(_CF_VARS)}, y); }}"
        return f"{call} {{ {g.loop(_CF_VARS, 2, False)} }}", "x ^ (y * 31) ^ (z * 17)"

    _differential(compactions, build)


def test_atomics_inside_compacted_loops_match(compactions):
    def build(seed):
        g = _Gen(seed, exits=("break", "continue"), atomics=True)
        body = f"atomic_add(&bins[({g.expr(_CF_VARS)}) & 7], x & 3); {g.block(_CF_VARS, 1, True)}"
        return f"{{ {g.loop(_CF_VARS, 1, False, body=body)} }}", "x"

    _differential(compactions, build)


#: What ``_aliasing_program`` adds to the result: ``p`` and ``q`` own
#: their arrays until its store may share one.
_ALIASING_RESULT = "x ^ (y * 31) ^ (z * 17) ^ (p * 7) ^ (q * 13)"


def _aliasing_program(seed):
    """A random block (loops, exits, helpers, atomics); two owners ``p``
    and ``q`` (``q`` half the time uniform), half the time replaced by a
    quotient or remainder of itself (of a uniform ``q``, a 0-d array);
    half the time a store that may give one's array a second name (itself
    under an ``if`` or not); then three divergent updates (increments, or
    a ``/=`` or ``%=``, which ends ownership), alternating between the
    two names, each under an ``if`` or in a loop with random statements:
    an update made in place where it must not be shows in the result."""
    g = _Gen(seed, exits=("break", "continue", "return"), calls=True, atomics=True)
    parts = [g.block(_CF_VARS, 2, False), "int p = gid * 3 + a;", f"int q = {g.pick('(gid ^ b)', 'b')} - 1;"]
    g.aliases = True
    if g.flip():  # on every lane: a uniform q stays uniform
        parts.append(f"q {g.pick('/=', '%=')} {g.pick(2, 3, '(a & 7)')};")
    scope = _CF_VARS + ("p", "q")
    target, source = g.rng.sample(("p", "q"), 2)
    if g.flip():
        share = g.alias(target, source, scope)
        parts.append(f"if ({g.cond(scope)}) {{ {share} }}" if g.flip() else share)
    order = g.rng.sample((target, source), 2)
    for name in order + order[:1]:
        update = f"{name}{g.pick('++', '--', ' += 3', ' -= a', ' += gid', ' /= 2', ' %= 3')};"
        if g.flip():
            parts.append(f"if ({g.cond(scope)}) {{ {update} }}")
        else:
            parts.append(f"{{ {g.loop(scope, 1, False, body=f'{update} {g.stmt(_CF_VARS, 0, True)}')} }}")
    return " ".join(parts)


def test_stores_that_share_arrays_match(compactions):
    """The ownership rule of the in-place integer updates, drawn: 200
    programs whose stores give arrays second names, and whose uniform
    quotients are 0-d arrays, next to divergent updates, among loops,
    exits, helpers and atomics.  About three in five keep an owner for
    the in-place path to run (a quarter is the floor), and every one
    agrees with the interpreter."""
    in_place = []

    def build(seed):
        body = _aliasing_program(seed)
        in_place.append("# merge in place" in compile_program(_kernel(body, _ALIASING_RESULT)).python_source)
        return body, _ALIASING_RESULT

    _differential(compactions, build, examples=200)
    assert sum(in_place) >= len(in_place) // 4


# -- helpers called with mixed-uniformity arguments -----------------------
#: The helper-call family draws from its own stream, so the programs of
#: the other families (and ``generated_golden.json``) stay where they are.
_HELPER_STREAM = 0x4E1_0000
HELPER_PROGRAMS = 100
#: ``helper_calls_golden.json``: per program ``sha256(source)`` and the
#: vector backend's ``[ops, sha256(out || bins)]`` at the commit before
#: helpers were inlined (``python tests/clc/test_differential.py`` with
#: that commit's ``src`` first on ``PYTHONPATH``; never from the code the
#: table judges), with the compaction floor at ``_FLOOR``.
HELPER_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "helper_calls_golden.json")


def _hexpr(g, scope, depth=2):
    """An integer expression over a helper's names (no ``gid`` there)."""
    if depth == 0 or g.flip():
        return str(g.rng.randint(-9, 9)) if g.flip() else g.pick(*scope)
    return f"({_hexpr(g, scope, depth - 1)} {g.pick('+', '-', '*', '&', '|', '^')} {_hexpr(g, scope, depth - 1)})"


def _helper(g, name, earlier):
    """``int name(__global int *t, int p, int q)``: declarations, zero to
    two guard returns and a final return; after a guard, half the time a
    statement that keeps the rest masked (a load of ``t``, a ``vecrt``
    division, a call of an earlier helper) or writes ``p`` (so ``p`` is
    a copy of its argument, not the argument itself)."""
    scope, body = ["p", "q"], []
    if g.flip():
        body.append(f"int r = {_hexpr(g, scope)};")
        scope.append("r")
    for k in range(g.rng.randint(0, 2)):
        cond = f"{_hexpr(g, g.pick(scope, ['q']))} {g.pick('<', '>', '==', '!=')} {_hexpr(g, scope, 1)}"
        body.append(f"if ({cond}) return {_hexpr(g, scope, 1)};")
        after = g.pick("pure", "pure", "load", "division", "call", "param")
        if after == "call" and earlier:
            body.append(f"int c{k} = {g.pick(*earlier)}(t, {_hexpr(g, scope, 1)}, q);")
            scope.append(f"c{k}")
        elif after == "load":
            body.append(f"int c{k} = t[({_hexpr(g, scope, 1)}) & 7];")
            scope.append(f"c{k}")
        elif after == "division":
            body.append(f"int c{k} = {_hexpr(g, scope, 1)} {g.pick('/', '%')} {g.pick('q', 3, '(p | 1)')};")
            scope.append(f"c{k}")
        elif after == "param":
            body.append(f"p {g.pick('+=', '^=')} {_hexpr(g, scope, 1)};")
        else:
            body.append(f"int c{k} = {_hexpr(g, scope)};")
            scope.append(f"c{k}")
    body.append(f"return {_hexpr(g, scope)};")
    return f"int {name}(__global int *t, int p, int q) {{ {' '.join(body)} }}\n"


def _helper_call_program(seed):
    """``(source, lanes, a, b)`` of program ``seed`` of the family: one to
    three helpers (reading ``bins`` through a pointer), called with
    uniform and per-lane arguments at top level, in uniform loops (also
    under a divergent ``if``, so their compaction gathers what is
    hoisted before them) and in divergent loops, among random
    statements with exits.  No atomics: ``bins`` is read, and a
    work-item's atomic would race with another's load."""
    g = _Gen(_HELPER_STREAM + seed, exits=("break", "continue", "return"))
    names, source = [], ""
    for h in range(g.rng.randint(1, 3)):
        source += _helper(g, f"h{h}", list(names))
        names.append(f"h{h}")
    parts = [g.block(_CF_VARS, 1, False)]
    for _ in range(g.rng.randint(2, 4)):
        args = [g.pick("a", "b", "(a * 3 - b)", "7", "x", "gid", g.expr(_CF_VARS, 1), g.expr(_CF_VARS)) for _ in "pq"]
        i = g.fresh("i")
        call = f"{g.pick(*_CF_VARS)} {g.pick('=', '+=', '^=')} {g.pick(*names)}(bins, {args[0]}, {args[1]});"
        site = g.pick("top", "uniform", "uniform", "under_if", "divergent")
        if site == "top":
            parts.append(call)
            continue
        bound = f"(gid + {g.rng.randint(0, 4)}) % 5" if site == "divergent" else f"(a & 3) + {g.rng.randint(1, 3)}"
        invariant = f"{g.pick(*_CF_VARS)} += ({g.pick(*_CF_VARS)} * {g.rng.randint(2, 5)} + a) ^ {i};"
        loop = f"for (int {i} = 0; {i} < {bound}; {i}++) {{ {call} {invariant} {g.stmt(_CF_VARS + (i,), 0, True)} }}"
        parts.append(f"if ({g.cond(_CF_VARS)}) {{ {loop} }}" if site == "under_if" else f"{{ {loop} }}")
    draw = random.Random(_HELPER_STREAM ^ seed)
    source += _kernel(" ".join(parts))
    return source, draw.choice((1, 2, 7, 8, 20, 33)), draw.randint(-5, 9), draw.randint(-5, 9)


def _run(program, lanes, a, b, backend="vector"):
    """``(ops, out, bins)`` of one whole-range launch of ``k``."""
    out = np.full(lanes, -77, dtype=np.int32)
    bins = np.arange(-20, 36, 7, dtype=np.int32)
    stats = execute_kernel(program.kernel("k"), (lanes,), [out, bins, a, b], backend=backend)
    return stats.ops, out, bins


def _digest(data):
    return hashlib.sha256(b"".join(part.tobytes() for part in data)).hexdigest()


def test_helper_calls_match_interp_and_the_parent(compactions):
    """The helper-call family: inlined where the call site and the shape
    allow, called elsewhere, every program agrees with the interpreter
    and charges and computes what the vector backend did before helpers
    were inlined (``HELPER_GOLDEN``)."""
    with open(HELPER_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == HELPER_PROGRAMS
    inlined = 0
    for seed in range(HELPER_PROGRAMS):
        source, lanes, a, b = _helper_call_program(seed)
        assert hashlib.sha256(source.encode()).hexdigest() == golden[seed]["source"], (
            f"program {seed} changed: the generator was edited; re-record at the parent commit"
        )
        program = compile_program(source)
        inlined += "# inlined: " in program.python_source
        compactions.extend((0, 0))
        ops, out, bins = _run(program, lanes, a, b)
        _, out_i, bins_i = _run(program, lanes, a, b, backend="interp")
        np.testing.assert_array_equal(out, out_i, err_msg=source)
        np.testing.assert_array_equal(bins, bins_i, err_msg=source)
        assert [ops, _digest((out, bins))] == golden[seed]["run"], f"seed {seed}, {lanes} lanes:\n{source}"
    assert inlined >= HELPER_PROGRAMS // 2 and max(compactions) >= 1


_COUNTED = """
__kernel void k(__global int *out, __global const int *stop) {
    int gid = (int)get_global_id(0);
    int steps = 0;
    int hits = gid & 1;
    int seen = gid * 2;
    int first = seen;
    while (steps < stop[gid]) {
        if ((steps ^ gid) & 1) hits++;
        seen += 3;
        steps++;
    }
    out[gid] = (steps * 100 + hits) * 1000 + first + seen;
}
"""


def test_in_place_increments_across_compactions(compactions):
    """``steps`` and ``hits`` own their arrays and are updated in place
    before, between and after compactions; ``seen`` shares its first
    array with ``first``, so it keeps the merge (an in-place update in
    the first, full-width iteration would change ``first``)."""
    source = compile_program(_COUNTED).python_source
    for owner in ("steps", "hits"):
        assert f"# merge in place: {owner}_" in source
    assert "# merge kept: seen_" in source
    stop = np.repeat([1, 3, 6, 10], 16)
    out = _run_exit_at(stop, compactions, _COUNTED)
    assert max(compactions) >= 2
    gid = np.arange(64)
    hits = (gid & 1) + [sum((s ^ g) & 1 for s in range(n)) for g, n in zip(gid, stop)]
    np.testing.assert_array_equal(out, (stop * 100 + hits) * 1000 + 4 * gid + 3 * stop)


# -- compaction edge cases -------------------------------------------------
_EXIT_AT = """
__kernel void k(__global int *out, __global const int *stop) {
    int gid = (int)get_global_id(0);
    int steps = 0;
    int last = -1;
    while (steps < stop[gid]) { last = steps * gid; steps++; }
    out[gid] = steps * 1000 + last;
}
"""


def _run_exit_at(stop, compactions, source=_EXIT_AT):
    prog = compile_program(source)
    stop = np.asarray(stop, dtype=np.int32)
    outs = []
    for backend in ("vector", "interp"):
        out = np.full(stop.size, -1, dtype=np.int32)
        compactions.append(0)
        execute_kernel(prog.kernel("k"), (stop.size,), [out, stop], backend=backend)
        outs.append(out)
    np.testing.assert_array_equal(outs[0], outs[1])
    return outs[0]


def test_every_lane_exits_in_the_same_iteration(compactions):
    out = _run_exit_at([5] * 32, compactions)
    assert max(compactions) == 0  # occupancy never dropped
    np.testing.assert_array_equal(out, 5000 + 4 * np.arange(32))


def test_exactly_one_lane_survives(compactions):
    stop = [2] * 32
    stop[17] = 9
    out = _run_exit_at(stop, compactions)
    assert max(compactions) == 1
    assert out[17] == 9000 + 8 * 17 and out[3] == 2000 + 3


def test_repeated_compaction_keeps_early_leavers_values(compactions):
    """Lanes leave in four waves: each wave's values are saved at the
    width they were gathered from and must all come back at the exit."""
    out = _run_exit_at(np.repeat([1, 3, 6, 10], 16), compactions)
    assert max(compactions) >= 2
    gid = np.arange(64)
    steps = np.repeat([1, 3, 6, 10], 16)
    np.testing.assert_array_equal(out, steps * 1000 + (steps - 1) * gid)


def test_zero_active_lanes_at_loop_entry(compactions):
    source = _EXIT_AT.replace("int steps = 0;", "if (gid >= 0) return; int steps = 0;")
    out = _run_exit_at([4] * 32, compactions, source)
    assert max(compactions) == 0
    np.testing.assert_array_equal(out, -1)


_LOCAL_TILE = """
__kernel void k(__global float *out, const int n) {
    __local float tile[64];
    int gid = (int)get_global_id(0);
    int lid = (int)get_local_id(0);
    if (gid < n) tile[lid] = (float)gid * 0.75f + 0.5f;
    else tile[lid] = -1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    float acc = 0.0f;
    for (int j = 0; j <= lid; j++) acc += tile[j];
    int k = 0;
    while (k < lid % 7) { acc = acc * 0.5f + (float)k; k++; }
    out[gid] = acc;
}
"""


@pytest.mark.parametrize("floor", [vecrt.COMPACT_MIN_LANES, _FLOOR], ids=["masked", "compacting"])
def test_kernel_body_local_array_matches(floor, compactions, monkeypatch):
    """A ``__local`` array declared in the kernel body (``local_array``):
    filled under a divergent branch, barriered, read back per work-group.
    Each work-item reads only its own and lower work-items' slots, so the
    sequential interpreter — which has no barrier — computes the same
    values from the barrier-free source."""
    monkeypatch.setattr(vecrt, "COMPACT_MIN_LANES", floor)
    prog = compile_program(_LOCAL_TILE)
    assert "_ctx.local_array('tile" in prog.python_source
    assert "masked (local memory)" in prog.python_source
    reference = compile_program(_LOCAL_TILE.replace("barrier(CLK_LOCAL_MEM_FENCE);", ""))
    outs = []
    for program, backend in ((prog, "vector"), (reference, "interp")):
        out = np.full(96, -7, dtype=np.float32)
        compactions.append(0)
        execute_kernel(program.kernel("k"), (96,), [out, 80], local_size=(32,), backend=backend)
        outs.append(out)
    np.testing.assert_array_equal(outs[0], outs[1])
    assert (compactions[0] > 0) == (floor == _FLOOR)  # the private loop compacts


def test_loop_with_barrier_is_not_compacted(compactions):
    source = """
    __kernel void k(__global int *out, __global const int *stop) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        for (int s = 0; s < 4; s++) {
            if (s < stop[gid]) acc += s;
            barrier(CLK_LOCAL_MEM_FENCE);
        }
        out[gid] = acc;
    }
    """
    prog = compile_program(source)
    assert "masked (barrier)" in prog.python_source
    stop = np.arange(32, dtype=np.int32) % 5
    out = np.zeros(32, dtype=np.int32)
    compactions.append(0)
    execute_kernel(prog.kernel("k"), (32,), [out, stop], local_size=(8,))
    assert max(compactions) == 0
    np.testing.assert_array_equal(out, [sum(range(min(s, 4))) for s in stop])


if __name__ == "__main__":  # pragma: no cover - recording HELPER_GOLDEN, at the parent commit only
    vecrt.COMPACT_MIN_LANES = _FLOOR
    table = []
    for seed in range(HELPER_PROGRAMS):
        source, lanes, a, b = _helper_call_program(seed)
        ops, out, bins = _run(compile_program(source), lanes, a, b)
        table.append({"source": hashlib.sha256(source.encode()).hexdigest(), "run": [ops, _digest((out, bins))]})
    with open(HELPER_GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(entry) for entry in table) + "\n]\n")
    print(f"recorded {len(table)} programs -> {HELPER_GOLDEN}")
