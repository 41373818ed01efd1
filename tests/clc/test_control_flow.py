"""Control-flow coverage: loops, break/continue, divergence, functions."""

import numpy as np
import pytest

from repro.clc import CLCompileError, compile_program, execute_kernel


def run_both(source, kernel, gsize, make_args, local_size=None):
    """Run vector and interp backends; return both output sets."""
    prog = compile_program(source)
    a1 = make_args()
    a2 = make_args()
    execute_kernel(prog.kernel(kernel), gsize, a1, local_size=local_size, backend="vector")
    execute_kernel(prog.kernel(kernel), gsize, a2, local_size=local_size, backend="interp")
    return a1, a2


def test_for_loop_sum():
    src = """
    __kernel void sums(__global int *out, const int n) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        for (int k = 0; k <= gid; k++) {
            acc += k;
        }
        out[gid] = acc;
    }
    """
    prog = compile_program(src)
    n = 64
    out = np.zeros(n, dtype=np.int32)
    execute_kernel(prog.kernel("sums"), (n,), [out, n])
    expected = np.array([k * (k + 1) // 2 for k in range(n)], dtype=np.int32)
    np.testing.assert_array_equal(out, expected)


def test_break_and_continue():
    src = """
    __kernel void weird(__global int *out) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        for (int k = 0; k < 100; k++) {
            if (k == gid) continue;
            if (k > gid + 5) break;
            acc += 1;
        }
        out[gid] = acc;
    }
    """

    def make():
        return [np.zeros(32, dtype=np.int32)]

    (v,), (i,) = run_both(src, "weird", (32,), make)
    np.testing.assert_array_equal(v, i)
    # lane 0: k=0 continue; k 1..5 count; k=6 break -> 5
    assert v[0] == 5


def test_do_while():
    src = """
    __kernel void dw(__global int *out) {
        int gid = (int)get_global_id(0);
        int count = 0;
        int x = gid;
        do {
            x /= 2;
            count++;
        } while (x > 0);
        out[gid] = count;
    }
    """

    def make():
        return [np.zeros(50, dtype=np.int32)]

    (v,), (i,) = run_both(src, "dw", (50,), make)
    np.testing.assert_array_equal(v, i)
    assert v[0] == 1  # do-while runs at least once
    assert v[8] == 4  # 8 -> 4 -> 2 -> 1 -> 0


def test_nested_loops_with_break():
    src = """
    __kernel void nest(__global int *out) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        for (int i = 0; i < 10; i++) {
            for (int j = 0; j < 10; j++) {
                if (j > i) break;
                if ((i + j) % 2 == gid % 2) continue;
                acc++;
            }
            if (acc > gid) {
                acc += 100;
                break;
            }
        }
        out[gid] = acc;
    }
    """

    def make():
        return [np.zeros(16, dtype=np.int32)]

    (v,), (i,) = run_both(src, "nest", (16,), make)
    np.testing.assert_array_equal(v, i)


def test_early_return_divergence():
    src = """
    __kernel void ret(__global int *out, const int n) {
        int gid = (int)get_global_id(0);
        if (gid >= n) return;
        if (gid % 3 == 0) {
            out[gid] = -1;
            return;
        }
        out[gid] = gid * 2;
    }
    """

    def make():
        return [np.full(40, 7, dtype=np.int32), 30]

    (v, _), (i, _) = run_both(src, "ret", (40,), make)
    np.testing.assert_array_equal(v, i)
    assert v[30] == 7  # untouched beyond n
    assert v[0] == -1 and v[1] == 2


def test_uniform_argument_ignores_lanes_that_returned():
    """``d`` is declared after some lanes returned: those lanes hold
    whatever the declaration left there, and only the active lanes have
    to agree on the dimension index."""
    src = """
    __kernel void dims(__global int *out, const int n) {
        int g = (int)get_global_id(0);
        if (g >= n) return;
        int d = 1;
        out[g] = (int)get_global_size(d) + (int)get_local_id(d - 1);
    }
    """

    def make():
        return [np.zeros(8, dtype=np.int32), 5]

    (v, _), (i, _) = run_both(src, "dims", (8,), make)
    np.testing.assert_array_equal(v, i)
    np.testing.assert_array_equal(v, [1, 2, 3, 4, 5, 0, 0, 0])


def test_while_with_divergent_trip_counts():
    src = """
    __kernel void collatz(__global int *out) {
        int gid = (int)get_global_id(0);
        int x = gid + 1;
        int steps = 0;
        while (x != 1 && steps < 1000) {
            if (x % 2 == 0) { x /= 2; } else { x = 3 * x + 1; }
            steps++;
        }
        out[gid] = steps;
    }
    """

    def make():
        return [np.zeros(27, dtype=np.int32)]

    (v,), (i,) = run_both(src, "collatz", (27,), make)
    np.testing.assert_array_equal(v, i)
    assert v[26] == 111  # collatz(27) takes 111 steps


def test_user_function_call():
    src = """
    float square(float x) { return x * x; }
    float poly(float x, float a, float b) { return a * square(x) + b; }

    __kernel void apply(__global float *data, const float a, const float b) {
        int gid = (int)get_global_id(0);
        data[gid] = poly(data[gid], a, b);
    }
    """
    prog = compile_program(src)
    data = np.arange(10, dtype=np.float32)
    execute_kernel(prog.kernel("apply"), (10,), [data, 2.0, 1.0])
    np.testing.assert_allclose(data, 2 * np.arange(10, dtype=np.float32) ** 2 + 1)


def test_function_with_divergent_return():
    src = """
    int pick(int x) {
        if (x > 5) return 100;
        if (x > 2) return 50;
        return x;
    }
    __kernel void k(__global int *out) {
        int gid = (int)get_global_id(0);
        out[gid] = pick(gid);
    }
    """

    def make():
        return [np.zeros(10, dtype=np.int32)]

    (v,), (i,) = run_both(src, "k", (10,), make)
    np.testing.assert_array_equal(v, i)
    np.testing.assert_array_equal(v, [0, 1, 2, 50, 50, 50, 100, 100, 100, 100])


def test_recursion_rejected():
    src = """
    int f(int x) { return x <= 1 ? 1 : x * f(x - 1); }
    __kernel void k(__global int *out) { out[0] = f(5); }
    """
    with pytest.raises(CLCompileError, match="recursion"):
        compile_program(src)


def test_mutual_recursion_rejected():
    src = """
    int g(int x);
    """
    # prototypes unsupported; test true mutual recursion bodies
    src = """
    int f(int x) { return x <= 0 ? 0 : g(x - 1); }
    int g(int x) { return f(x); }
    __kernel void k(__global int *out) { out[0] = f(5); }
    """
    with pytest.raises(CLCompileError, match="recursion"):
        compile_program(src)


def test_ternary_and_compound_assign():
    src = """
    __kernel void t(__global int *out) {
        int gid = (int)get_global_id(0);
        int x = gid;
        x += gid > 4 ? 10 : 20;
        x <<= 1;
        x |= 1;
        x %= 97;
        out[gid] = x;
    }
    """

    def make():
        return [np.zeros(12, dtype=np.int32)]

    (v,), (i,) = run_both(src, "t", (12,), make)
    np.testing.assert_array_equal(v, i)


def test_increment_decrement():
    src = """
    __kernel void inc(__global int *out) {
        int gid = (int)get_global_id(0);
        int x = gid;
        int a = x++;
        int b = ++x;
        int c = x--;
        int d = --x;
        out[gid] = a * 1000 + b * 100 + c * 10 + d;
    }
    """

    def make():
        return [np.zeros(5, dtype=np.int32)]

    (v,), (i,) = run_both(src, "inc", (5,), make)
    np.testing.assert_array_equal(v, i)
    # gid=1: a=1 (post), x=2; b=3 (pre), x=3; c=3 (post), x=2; d=1
    assert v[1] == 1 * 1000 + 3 * 100 + 3 * 10 + 1


def test_private_array():
    src = """
    __kernel void hist4(__global const int *data, __global int *out, const int n) {
        int gid = (int)get_global_id(0);
        int counts[4];
        for (int k = 0; k < 4; k++) counts[k] = 0;
        for (int k = 0; k < n; k++) {
            counts[(data[k] + gid) % 4] += 1;
        }
        int best = 0;
        for (int k = 1; k < 4; k++) {
            if (counts[k] > counts[best]) best = k;
        }
        out[gid] = best;
    }
    """
    rng = np.random.default_rng(3)
    data = rng.integers(0, 4, size=30).astype(np.int32)

    def make():
        return [data.copy(), np.zeros(8, dtype=np.int32), 30]

    (v1, o1, _), (v2, o2, _) = run_both(src, "hist4", (8,), make)
    np.testing.assert_array_equal(o1, o2)


def test_local_memory_reduction_with_barrier():
    # Barrier only works on the vector backend (lockstep); check against a
    # numpy reference instead of the interpreter.
    src = """
    __kernel void block_sum(__global const float *data, __global float *partial,
                            __local float *scratch) {
        int lid = (int)get_local_id(0);
        int gid = (int)get_global_id(0);
        int lsz = (int)get_local_size(0);
        scratch[lid] = data[gid];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int stride = lsz / 2; stride > 0; stride /= 2) {
            if (lid < stride) {
                scratch[lid] += scratch[lid + stride];
            }
            barrier(CLK_LOCAL_MEM_FENCE);
        }
        if (lid == 0) {
            partial[get_group_id(0)] = scratch[0];
        }
    }
    """
    from repro.clc import LocalMemory

    prog = compile_program(src)
    n, group = 256, 32
    rng = np.random.default_rng(5)
    data = rng.random(n, dtype=np.float32)
    partial = np.zeros(n // group, dtype=np.float32)
    execute_kernel(
        prog.kernel("block_sum"),
        (n,),
        [data, partial, LocalMemory(group * 4)],
        local_size=(group,),
    )
    expected = data.reshape(-1, group).sum(axis=1, dtype=np.float32)
    np.testing.assert_allclose(partial, expected, rtol=1e-5)


def test_divergent_barrier_detected():
    src = """
    __kernel void bad(__global float *x, __local float *s) {
        int lid = (int)get_local_id(0);
        if (lid < 2) {
            barrier(CLK_LOCAL_MEM_FENCE);
        }
        x[get_global_id(0)] = 1.0f;
    }
    """
    from repro.clc import CLCRuntimeError, LocalMemory

    prog = compile_program(src)
    x = np.zeros(8, dtype=np.float32)
    with pytest.raises(CLCRuntimeError, match="divergent barrier"):
        execute_kernel(prog.kernel("bad"), (8,), [x, LocalMemory(32)], local_size=(4,))


def test_atomic_add_histogram():
    src = """
    __kernel void hist(__global const int *data, __global int *bins, const int n) {
        int gid = (int)get_global_id(0);
        if (gid < n) {
            atomic_add(&bins[data[gid]], 1);
        }
    }
    """
    prog = compile_program(src)
    rng = np.random.default_rng(11)
    n, nbins = 1000, 16
    data = rng.integers(0, nbins, size=n).astype(np.int32)
    bins_v = np.zeros(nbins, dtype=np.int32)
    bins_i = np.zeros(nbins, dtype=np.int32)
    execute_kernel(prog.kernel("hist"), (1024,), [data, bins_v, n], backend="vector")
    execute_kernel(prog.kernel("hist"), (1024,), [data, bins_i, n], backend="interp")
    expected = np.bincount(data, minlength=nbins).astype(np.int32)
    np.testing.assert_array_equal(bins_v, expected)
    np.testing.assert_array_equal(bins_i, expected)


def test_atomic_float_add_extension():
    src = """
    __kernel void acc(__global const float *data, __global float *total, const int n) {
        int gid = (int)get_global_id(0);
        if (gid < n) atomic_add(&total[0], data[gid]);
    }
    """
    prog = compile_program(src)
    data = np.ones(100, dtype=np.float32)
    total = np.zeros(1, dtype=np.float32)
    execute_kernel(prog.kernel("acc"), (128,), [data, total, 100])
    assert total[0] == pytest.approx(100.0)


def test_out_of_bounds_detected():
    src = """
    __kernel void oob(__global int *out) {
        out[get_global_id(0) + 1000] = 1;
    }
    """
    from repro.clc import CLCRuntimeError

    prog = compile_program(src)
    out = np.zeros(8, dtype=np.int32)
    with pytest.raises(CLCRuntimeError, match="out-of-bounds"):
        execute_kernel(prog.kernel("oob"), (8,), [out])


def test_math_builtins():
    src = """
    __kernel void m(__global float *out, __global const float *x) {
        int gid = (int)get_global_id(0);
        float v = x[gid];
        out[gid] = sqrt(fabs(v)) + exp(-v * v) + sin(v) * cos(v)
                 + pow(fabs(v) + 1.0f, 0.5f) + fmin(v, 0.25f) + clamp(v, 0.1f, 0.9f)
                 + mad(v, 2.0f, 1.0f) + atan2(v, 1.0f + v * v);
    }
    """
    prog = compile_program(src)
    rng = np.random.default_rng(2)
    x = rng.random(64, dtype=np.float32)
    out_v = np.zeros(64, dtype=np.float32)
    out_i = np.zeros(64, dtype=np.float32)
    execute_kernel(prog.kernel("m"), (64,), [out_v, x], backend="vector")
    execute_kernel(prog.kernel("m"), (64,), [out_i, x], backend="interp")
    np.testing.assert_allclose(out_v, out_i, rtol=1e-6)
    assert np.all(np.isfinite(out_v))


# ----------------------------------------------------------------------
# guarded accesses: no fault on lanes C never evaluates
# ----------------------------------------------------------------------
# 8 work-items over a 5-element buffer.  ``&&`` / ``||`` / ``?:`` are
# evaluated for every active lane on the vector backend, but their
# loads are performed only where C would perform them.
GUARDED = {
    "and": "if (i < n && data[i] > 0) out[i] = data[i];",
    "ternary": "out[i] = (i < n) ? data[i] : -1;",
    "or_return": "if (i >= n || data[i] == 0) return; out[i] = 7;",
    "nested_and": "if (i >= 1 && i < n && data[i] > 1) out[i] = data[i] + data[i - 1];",
    "nested_right": "if (i < n && (data[i] > 1 || data[(i + 1) % n] > 4)) out[i] = 1;",
    "ternary_in_and": "if (i < n + 1 && ((i < n) ? data[i] : 9) > 2) out[i] = 3;",
}


@pytest.mark.parametrize("idiom", sorted(GUARDED))
def test_guarded_load_does_not_fault_on_the_lanes_it_guards(idiom):
    src = f"""
    __kernel void g(__global const int *data, __global int *out, const int n) {{
        int i = (int)get_global_id(0);
        {GUARDED[idiom]}
    }}
    """
    data = np.array([3, 0, 2, 0, 5], dtype=np.int32)
    vec, ref = run_both(src, "g", (8,), lambda: [data, np.full(8, -9, dtype=np.int32), 5])
    np.testing.assert_array_equal(vec[1], ref[1])


def test_guarded_load_inside_a_compacted_loop(monkeypatch):
    """The guard's mask has the compacted width; the loop's trip count
    differs per lane, so the gather really happens."""
    from repro.clc import vecrt

    compactions, compact = [], vecrt.compact
    monkeypatch.setattr(vecrt, "COMPACT_MIN_LANES", 4)
    monkeypatch.setattr(vecrt, "compact", lambda *args: compactions.append(1) or compact(*args))
    src = """
    __kernel void g(__global const int *data, __global int *out, const int n) {
        int i = (int)get_global_id(0);
        int acc = 0;
        for (int k = 0; k < i; k++) {
            int j = i + k;
            if (j < n && data[j] > 0) acc += data[j];
            acc += (j < n) ? data[j] : 1;
        }
        out[i] = acc;
    }
    """
    data = np.arange(1, 21, dtype=np.int32)
    vec, ref = run_both(src, "g", (16,), lambda: [data, np.zeros(16, dtype=np.int32), 20])
    np.testing.assert_array_equal(vec[1], ref[1])
    assert compactions


def test_unguarded_out_of_bounds_load_still_faults():
    from repro.clc import CLCRuntimeError

    src = """
    __kernel void g(__global const int *data, __global int *out, const int n) {
        int i = (int)get_global_id(0);
        if (i < n + 1 && data[i] > 0) out[i] = 1;
    }
    """
    prog = compile_program(src)
    args = [np.ones(5, dtype=np.int32), np.zeros(8, dtype=np.int32), 5]
    for backend in ("vector", "interp"):
        with pytest.raises(CLCRuntimeError, match=r"index 5 not in \[0, 5\)"):
            execute_kernel(prog.kernel("g"), (8,), args, backend=backend)
