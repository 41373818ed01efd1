"""Differential testing: the vector backend against the reference
interpreter on randomly generated programs.

Integer arithmetic is exact (wraparound included), so any mismatch is a
genuine backend bug, not floating-point noise.
"""

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
    """Lower the compaction floor; count compactions per launch."""
    launches = []
    original = vecrt.compact

    def counting(*args):
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
    source, which is what one debugs from anyway."""

    def __init__(self, seed, exits=(), calls=False, atomics=False):
        self.rng = random.Random(seed)
        self.exits = exits  # of "break", "continue", "return"
        self.calls = calls
        self.atomics = atomics
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
        kind = self.pick("=", "=", "+=", "^=", "++")
        if kind == "++":
            return f"{target}++;"
        return f"{target} {kind} {self.expr(scope)};"

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


def _kernel(body, result="x ^ (y * 31) ^ (z * 17)"):
    return f"""{_HELPER if "helper(" in body else ""}
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


def _differential(compactions, build, min_fired=1):
    """Run ``build(seed) -> (body, result expression)`` on 150 drawn
    programs; at least one launch must have compacted ``min_fired`` times."""

    @given(seed=st.integers(0, 2**32), lanes=st.sampled_from(_LANES), a=st.integers(-5, 9), b=st.integers(-5, 9))
    @settings(max_examples=150, deadline=None)
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
