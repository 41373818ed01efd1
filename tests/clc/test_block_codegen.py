"""The block-charging code generator: each of its rules against the
interpreter, the shape of the code it emits, and a budget on what that
code costs the host.

``test_op_accounting.py`` (13 golden rows) and
``test_generated_golden.py`` (300 generated programs recorded at the
parent commit) hold the charges and outputs to what the per-op generator
produced; the cases here are the ones written *for* the new rules.
"""

import re

import numpy as np
import pytest

from repro.apps.mandelbrot import MANDELBROT_KERNEL
from repro.apps.osem import disk_phantom, generate_events
from repro.apps.osem.kernels import OSEM_PROGRAM
from repro.bench import figures
from repro.bench.stream import frame_config
from repro.clc import CLCRuntimeError, compile_program, execute_kernel, vecrt
from repro.tools.clcdump import launch_counts

#: Everything generated code may reach ``vecrt`` for: what carries OpenCL
#: C semantics.  No arithmetic, comparison, logic, select or math wrapper.
RETAINED = {
    "merge", "restrict", "split", "count", "cast", "uniform", "compact", "expand",
    "COMPACT_MIN_LANES", "COMPACT_OCCUPANCY", "idiv", "imod", "shl", "shr",
    "load_global", "store_global", "load_local", "store_local",
    "private_array", "load_private", "store_private", "atomic", "barrier",
}
DELETED = (
    "add sub mul fdiv neg invert bitand bitor bitxor lt le gt ge eq ne and_ or_ not_ select math _charge"
).split()

_CF_SOURCE = """
int pick(int x) { if (x > 5) return 100; if (x > 2) return 50; return x; }
__kernel void k(__global int *out, __global const int *data, __local int *tmp, const int n) {
    int gid = (int)get_global_id(0);
    int lid = (int)get_local_id(0);
    int acc = 0;
    tmp[lid] = data[gid % n];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int k = 0; k < 10; k++) {
        if (k == gid) continue;
        if (k > gid + 5) break;
        acc += pick(k) << 1;
        acc = acc % 7 + acc / 3;
    }
    out[gid] = (acc > 3 && tmp[lid] > 0) ? acc : -acc;
}
"""
BUNDLED = {"mandelbrot": MANDELBROT_KERNEL, "osem": OSEM_PROGRAM, "control_flow": _CF_SOURCE}


# ----------------------------------------------------------------------
# one emission path, one charge per block
# ----------------------------------------------------------------------
def test_vecrt_has_no_charging_arithmetic_wrapper():
    assert [name for name in DELETED if hasattr(vecrt, name)] == []
    assert [name for name in RETAINED if not hasattr(vecrt, name)] == []


@pytest.mark.parametrize("program", sorted(BUNDLED))
def test_generated_module_calls_only_semantic_helpers(program):
    source = compile_program(BUNDLED[program]).python_source
    assert set(re.findall(r"_rt\.(\w+)", source)) <= RETAINED


@pytest.mark.parametrize("program", sorted(BUNDLED))
def test_generated_module_charges_once_per_block(program):
    """Between two lines that change ``_mn`` or branch, at most one
    ``_ctx.ops +=``; and it is the only way ops are ever charged."""
    source = compile_program(BUNDLED[program]).python_source
    charges = 0
    for line in source.splitlines():
        text = line.strip()
        if text.startswith(("def ", "if ", "else:", "while ", "return")) or re.match(r"(_m, )?_mn\b.* = ", text):
            charges = 0
        if "_ctx.ops" in text:
            assert re.fullmatch(r"_ctx\.ops \+= _mn \* \d+  # block: \d+ ops", text), text
            charges += 1
            assert charges == 1, f"two charges in one block, the second at: {text}"
    assert "_ctx.ops +=" in source


def test_every_decision_leaves_a_comment():
    source = compile_program(OSEM_PROGRAM).python_source
    for comment in (
        "# block: 30 ops",  # the loop body up to pixel_at's guard: 13 of its own, 17 inlined
        "# inlined: pixel_at",
        "# guards selected: every lane runs on, each is charged as it returns",
        "# lanes returning at guard 1",
        "# hoisted: invariant in loop 2",
        "# mask restored: if 4 parks nobody for good",
        "# mask restored: loop 2 parks nobody for good",
        "# the then-arm of if 1 always leaves",
        "# uniform: nsamp_12, s_42",
        "# merge kept: acc_41 live after loop 2",
        "# merge elided: s_42 dead after loop 2",
        "# loop 2: compactable",
        "# lanes retired: if 1 returns them for good",
        "# in place: the chain's next operators reuse this array",
    ):
        assert comment in source, comment
    assert "_ret " not in source and "_ret," not in source  # no loop returns: nobody keeps _ret
    mandelbrot = compile_program(MANDELBROT_KERNEL).python_source
    assert "# merge in place: iter_18 live after loop 2, owns its array" in mandelbrot
    escape_loop = mandelbrot[mandelbrot.index("while _mn:") : mandelbrot.index("if _cp2 is not None:")]
    assert "_rt.merge" not in escape_loop and "iter_18 += _c1 if _mn == _w else _m" in escape_loop


def test_value_numbering_computes_once_and_charges_twice():
    source = compile_program(MANDELBROT_KERNEL).python_source
    assert source.count("(zr_16 * zr_16)") == 1 and source.count("(zi_17 * zi_17)") == 1
    osem = compile_program(OSEM_PROGRAM).python_source
    forward = osem[osem.index("def _fn_forward_project") : osem.index("def _fn_back_project")]
    assert forward.count("_rt.cast(e_36, 'int64')") == 2  # four loads share one; the store after the loop


# ----------------------------------------------------------------------
# the call budget that keeps the win
# ----------------------------------------------------------------------
def _forward_project_launch():
    """One GPU's share of one subset of ``benchmarks/perf``'s OSEM op."""
    events = generate_events(disk_phantom(figures.OSEM_IMAGE), figures.OSEM_EVENTS, seed=0)
    chunk = events.subset(0, figures.OSEM_SUBSETS).chunk(0, 4)
    n = figures.OSEM_IMAGE
    lanes = ((chunk.count + 63) // 64) * 64
    args = [
        chunk.x1, chunk.y1, chunk.x2, chunk.y2,
        np.ones(n * n, dtype=np.float32), np.zeros(chunk.count, dtype=np.float32),
        chunk.count, n, figures.OSEM_SAMPLES,
    ]
    return OSEM_PROGRAM, "forward_project", (lanes,), args


def _mandelbrot_frame():
    """The first (widest) viewport of the stream zoom."""
    cfg = frame_config(0)
    args = [
        np.zeros(cfg.width * cfg.height, dtype=np.int32), cfg.width, cfg.height, 0, 1,
        np.float32(cfg.x0), np.float32(cfg.y0), np.float32(cfg.dx), np.float32(cfg.dy),
        cfg.max_iter,
    ]
    return MANDELBROT_KERNEL, "mandelbrot", (cfg.width, cfg.height), args


@pytest.mark.parametrize(
    "launch, budget",
    [(_forward_project_launch, 2700), (_mandelbrot_frame, 2500)],
    ids=["forward_project", "mandelbrot"],
)
def test_python_level_calls_per_launch_stay_within_budget(launch, budget):
    """The per-op generator made 8 182 and 14 295 calls for these two
    launches, the block-charging one 2 523 and 3 001, with in-place
    updates and lane retirement 2 428 and 2 203, and with ``pixel_at``
    inlined and invariant work hoisted 1 901 and 2 184; a NumPy call
    costs about a microsecond of dispatch whatever the lane count, so the
    count *is* the host cost of uniform kernels."""
    source, name, gsize, args = launch()
    program = compile_program(source)
    calls, blocks = launch_counts(
        program.python_source, lambda: execute_kernel(program.kernel(name), gsize, args)
    )
    assert 0 < blocks < calls <= budget


# ----------------------------------------------------------------------
# directed differential cases, one per rule
# ----------------------------------------------------------------------
def _both(source, lanes, make_args):
    """Outputs of the vector and the interpreter backends."""
    program = compile_program(source)
    runs = []
    for backend in ("vector", "interp"):
        args = make_args()
        execute_kernel(program.kernel("k"), (lanes,), args, backend=backend)
        runs.append(args)
    for vec, ref in zip(*runs):
        if isinstance(vec, np.ndarray):
            np.testing.assert_array_equal(vec, ref, err_msg=source)
    return program, runs[0]


@pytest.fixture(params=[False, True], ids=["masked", "compaction_forced"])
def floor(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(vecrt, "COMPACT_MIN_LANES", 4)


ARMS = {
    "always_returns": "if (x > 3) { out[gid] = 50; return; } x += 2;",
    "sometimes_returns": "if (x > 3) { if (k == 2) { out[gid] = 60 + k; return; } x -= 1; } x += 2;",
    "else_returns": "if (x > 3) { x -= 3; } else { if (k > 4) { out[gid] = 70; return; } } x += 2;",
    "breaks_outer_loop": "if (x > 6) { x = 100 + k; break; } x += gid & 3;",
    "continues_outer_loop": "if ((x & 1) == 0) { x += 3; continue; } x += 1;",
    "inner_loop_breaks_and_returns": (
        "for (int j = 0; j < 4; j++) { if (j > gid) break; if (x + j == 9) { out[gid] = 80; return; } x++; }"
    ),
}


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_if_arm_that_removes_lanes_for_good(arm, floor):
    source = f"""
    __kernel void k(__global int *out) {{
        int gid = (int)get_global_id(0);
        int x = gid % 5;
        out[gid] = -1;
        for (int k = 0; k < (gid % 7) + 2; k++) {{
            {ARMS[arm]}
        }}
        out[gid] = x;
    }}
    """
    _both(source, 32, lambda: [np.zeros(32, dtype=np.int32)])


def test_uniform_condition_that_turns_per_lane_mid_loop(floor):
    """``s`` starts as a scalar; the merge under the divergent ``if``
    makes it an array while the loop that tests it is running."""
    source = """
    __kernel void k(__global int *out, const int n) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        int s = 0;
        while (s < n) {
            acc += s;
            if (gid % 3 == 0 && s == 2) s += 2;
            s++;
        }
        out[gid] = acc * 100 + s;
    }
    """
    program, _ = _both(source, 24, lambda: [np.zeros(24, dtype=np.int32), 7])
    assert "uniform: n_" not in program.python_source  # s merges, so the test is per lane


def test_uniform_loop_and_if_never_touch_the_mask():
    source = """
    __kernel void k(__global int *out, const int n) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        for (int s = 0; s < n; s++) {
            if (s % 2 == 0) acc += gid; else acc -= 1;
            if (s == 5) break;
        }
        out[gid] = acc;
    }
    """
    program, _ = _both(source, 16, lambda: [np.zeros(16, dtype=np.int32), 9])
    loop = program.python_source
    assert "if not (s_" in loop and "_rt.restrict" not in loop and "_rt.split" not in loop
    assert loop.count("# uniform: ") == 3


def test_helper_that_returns_inside_a_loop_called_from_a_compacted_loop(floor):
    source = """
    int first_above(int start, int limit) {
        for (int j = start; j < start + 6; j++) {
            if (j * j > limit) return j;
            if (j == 11) break;
        }
        return -start;
    }
    __kernel void k(__global int *out) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        for (int k = 0; k < gid % 6; k++) {
            acc += first_above(k + (gid & 3), gid * 2);
        }
        out[gid] = acc;
    }
    """
    program, _ = _both(source, 32, lambda: [np.zeros(32, dtype=np.int32)])
    helper = program.python_source.split("def _fn_k")[0]
    assert "_ret = _ret | _m" in helper and "& ~_ret" in helper  # a loop returns: _ret is kept
    assert "_ret" not in program.python_source.split("def _fn_k")[1]  # the kernel never needs it


def test_atomic_whose_result_is_read_next_to_one_whose_is_not(floor):
    """Distinct slots per work-item, so the fetched value is defined."""
    source = """
    __kernel void k(__global int *out, __global int *slots, __global int *total) {
        int gid = (int)get_global_id(0);
        for (int k = 0; k < (gid % 3) + 1; k++) {
            int before = atomic_add(&slots[gid], k + 1);
            atomic_add(&total[0], 1);
            out[gid] += before;
        }
    }
    """
    make = lambda: [np.zeros(24, dtype=np.int32), np.arange(24, dtype=np.int32), np.zeros(1, dtype=np.int32)]
    program, (out, slots, total) = _both(source, 24, make)
    assert ", True, 'atomic_add'" in program.python_source and ", False, 'atomic_add'" in program.python_source
    assert total[0] == sum((g % 3) + 1 for g in range(24))


# ----------------------------------------------------------------------
# in place, and retired lanes: one case per ownership hazard
# ----------------------------------------------------------------------
#: Each body gives ``i``'s array a second name ``j`` before divergent
#: increments of both (the merges are kept: both are read after their
#: ``if``).  Were either updated in place, the other would see it; ``c``
#: is the control, an owner updated in place in the same kernel.
ALIASING = {
    "copied": ("", "int j = i;"),
    "assigned": ("", "int j = 0; j = i;"),
    "value_of_a_post_increment": ("", "int j = -1; if (gid & 4) j = i++;"),
    "cast_to_its_own_type": ("", "int j = (int)i;"),
    "uniform_select_arm": ("", "int j = n > 2 ? i : gid;"),
    "helper_returns_its_parameter": ("int same(int p) { return p; }", "int j = same(i);"),
    "helper_increments_its_parameter": (
        "int bump(int p, int g) { if (g & 1) p++; return p * 10; }",
        "int j = bump(i, gid);",
    ),
}


@pytest.mark.parametrize("case", sorted(ALIASING))
def test_a_second_name_keeps_its_value_across_an_increment(case, floor):
    helper, alias = ALIASING[case]
    source = f"""
    {helper}
    __kernel void k(__global int *out, const int n) {{
        int gid = (int)get_global_id(0);
        int i = gid * 3;
        int c = gid * 5;
        {alias}
        if (gid & 1) {{ i++; c++; }}
        if (gid & 2) j++;
        out[gid] = (j * 1000 + i) * 1000 + c;
    }}
    """
    program, _ = _both(source, 24, lambda: [np.zeros(24, dtype=np.int32), 7])
    kernel = program.python_source.split("def _fn_k")[1]
    assert "# merge in place: c_" in kernel
    assert "# merge in place: i_" not in kernel and "# merge in place: j_" not in kernel
    assert "# merge in place" not in program.python_source.split("def _fn_k")[0]  # parameters never own


def test_chain_never_updates_a_value_that_is_read_again():
    """``x * y`` and ``x * y + n`` are each computed once and read twice:
    a chain may start *from* their temporaries but never update one."""
    source = """
    __kernel void k(__global int *out, const int n) {
        int gid = (int)get_global_id(0);
        int x = gid * 3 + 1;
        int y = gid ^ 5;
        int a = (x * y + n) * 2 - gid;
        int b = (x * y + n) * 3;
        int c = x * y - 1;
        out[gid] = (a ^ b) + c;
    }
    """
    program, _ = _both(source, 16, lambda: [np.zeros(16, dtype=np.int32), 4])
    code = program.python_source
    assert code.count(" * y_") == 1 and re.search(r"_t\d+ = \(_t\d+ \+ n_", code)  # both numbered
    assert re.search(r"(_e\d+) = \(_t\d+ \* _c\d+\)  # in place.*\n\s*\1 -= gid_", code)  # a reads the reuse
    assert not re.search(r"_t\d+ [-+*]= ", code)  # a value-numbered temporary is never updated


#: Uniform integer quotients and remainders, stored by a declaration, by a
#: compound assignment, and by one through a conversion (``char`` divides
#: as ``int``); with ``n = 9``, what lanes 0 and 1 store.
QUOTIENTS = {
    "declared": ("int q = n / 2; int r = n % 3;", [400, 500 - 1]),
    "compound": ("int q = n + 1; q /= 2; int r = n - 1; r %= 3;", [502, 602 - 1]),
    "compound_char": ("char q = (char)(n + 1); q /= 2; char r = (char)n; r %= 4;", [501, 601 - 1]),
}


@pytest.mark.parametrize("case", sorted(QUOTIENTS))
def test_uniform_integer_quotient_keeps_its_merge(case, floor):
    """``n / 2`` and ``q /= 2`` are ``np.where`` over scalars, a 0-d
    array: an in-place ``q += _m`` could not widen it to the lanes."""
    stores, expected = QUOTIENTS[case]
    source = f"""
    __kernel void k(__global int *out, const int n) {{
        int gid = (int)get_global_id(0);
        {stores}
        if (gid & 1) {{ q++; r--; }}
        out[gid] = q * 100 + r;
    }}
    """
    program, (out, _) = _both(source, 8, lambda: [np.zeros(8, dtype=np.int32), 9])
    assert "# merge kept: q_" in program.python_source and "# merge kept: r_" in program.python_source
    assert list(out[:2]) == expected


def test_lanes_retired_by_the_guard_store_and_count_in_lane_order(monkeypatch):
    """After ``if (...) return;`` the survivors run at their own width:
    work-item IDs are the survivors', global stores land on them, and
    atomics (a float sum and an exchange: both depend on the order) go in
    lane order, as on the interpreter."""
    retired = []
    original = vecrt.compact

    def counting(ctx, state, scatter, m, *vals):
        if scatter is None:
            retired.append(m.shape[0] - int(np.count_nonzero(m)))
        return original(ctx, state, scatter, m, *vals)

    monkeypatch.setattr(vecrt, "compact", counting)
    source = """
    __kernel void k(__global int *out, __global int *bins, __global float *sum, const int n) {
        int gid = (int)get_global_id(0);
        int x = gid * 7;
        if (gid % 3 == 1 || gid >= n) return;
        out[gid] = (int)get_global_id(0) * 100 + x;
        atomic_add(&bins[gid & 3], gid);
        atomic_xchg(&bins[4], gid);
        atomic_add(&sum[0], 0.1f * (float)gid + 0.37f);
        for (int s = 0; s < gid % 5; s++) x += s;
        out[gid] += x;
    }
    """
    make = lambda: [np.full(40, -1, dtype=np.int32), np.zeros(5, dtype=np.int32), np.zeros(1, dtype=np.float32), 35]
    program, (out, bins, *_) = _both(source, 40, make)
    assert "# lanes retired: if 1 returns them for good" in program.python_source
    assert retired == [13 + 5 - 1]  # the 13 with gid % 3 == 1, the 5 from 35 on; 37 is both
    assert bins[4] == 33 and out[2] == (2 * 100 + 14) + (14 + 0 + 1)


def test_kernel_with_a_barrier_after_its_guard_stays_masked():
    """A guard that returns whole work-groups before a barrier: the rest
    indexes ``__local`` memory by work-group, so no lane is retired."""
    source = """
    __kernel void k(__global float *out, const int n) {
        __local float tile[32];
        int gid = (int)get_global_id(0);
        int lid = (int)get_local_id(0);
        if (gid >= n) return;
        tile[lid] = (float)gid * 0.5f;
        barrier(CLK_LOCAL_MEM_FENCE);
        out[gid] = tile[lid] + (lid > 0 ? tile[lid - 1] : 0.0f);
    }
    """
    program = compile_program(source)
    assert "lanes retired" not in program.python_source
    reference = compile_program(source.replace("barrier(CLK_LOCAL_MEM_FENCE);", ""))
    outs = []
    for prog, backend in ((program, "vector"), (reference, "interp")):
        out = np.full(96, -7, dtype=np.float32)
        execute_kernel(prog.kernel("k"), (96,), [out, 64], local_size=(32,), backend=backend)
        outs.append(out)
    np.testing.assert_array_equal(outs[0], outs[1])
    assert (outs[0][64:] == -7).all() and outs[0][5] == 2.5 + 2.0


@pytest.mark.parametrize("active", ["all", "one"])
@pytest.mark.parametrize("space", ["global", "private"])
def test_loads_at_the_last_index_and_one_past_it(space, active):
    """The all-active fast path and the masked path check the same
    bounds and report the same first offender, in the same words."""
    body = {
        "global": "out[gid] = data[gid + shift];",
        "private": "int a[4]; a[gid & 3] = gid; out[gid] = a[(gid & 3) + shift * 4];",
    }[space]
    guard = "" if active == "all" else "if (gid != 7) return;"
    source = f"""
    __kernel void k(__global int *out, __global const int *data, const int shift) {{
        int gid = (int)get_global_id(0);
        {guard}
        {body}
    }}
    """
    make = lambda shift: lambda: [np.zeros(8, dtype=np.int32), np.arange(8, dtype=np.int32), shift]
    _both(source, 8, make(0))  # every lane in bounds, the last one at the last index
    first = {"global": 8, "private": 4 + (0 if active == "all" else 3)}[space]
    size = {"global": 8, "private": 4}[space]
    program = compile_program(source)
    for backend in ("vector", "interp"):
        with pytest.raises(CLCRuntimeError) as err:
            execute_kernel(program.kernel("k"), (8,), make(1)(), backend=backend)
        if backend == "vector":
            message = f"out-of-bounds {space} load: index {first} not in [0, {size})"
            assert str(err.value) == message


# ----------------------------------------------------------------------
# inlined helpers and hoisted work: one case per hazard
# ----------------------------------------------------------------------
#: ``(helpers, kernel body)``: each case is run as written and with every
#: helper's body wrapped in a block (which no inlining rule accepts, and
#: which charges nothing), and both must charge and compute the same as
#: each other and as the interpreter.  The kernel reads ``data`` (ten
#: elements) and writes ``out[gid]``; ``n`` is 7.
HAZARDS = {
    # a load after the guard stays masked: on the lanes that returned it
    # would read out of bounds
    "load_after_guard": (
        "int get(__global const int *d, int i) { if (i >= 10) return -1; return d[i] * 3; }",
        "out[gid] = get(data, gid * 2);",
    ),
    # a store after the guard: the returned lanes must not store
    "store_after_guard": (
        "int put(__global int *o, int i, int v) { if (v > 4) return 0; o[i] = v; return 1; }",
        "int k = put(out, gid, gid & 7); out[gid] += k * 100;",
    ),
    # a written parameter is a copy: the caller's variable keeps its value
    "written_parameter": (
        "int bump(int p, int q) { p += q; if (p > 9) return p; p *= 2; return p + q; }",
        "int x = gid * 3; int y = bump(x, n); out[gid] = x * 1000 + y;",
    ),
    # two inlined calls in one expression: each value is its own, though
    # both are the helper's ``q``
    "two_calls_in_one_expression": (
        "int twice(int p) { int q = p * 2; return q; }",
        "out[gid] = twice(gid) + twice(gid + 7) * 1000;",
    ),
    # one helper expression, two call sites, two arguments: its value is
    # numbered per call site (a key per AST node would reuse ``y + 1``)
    "numbered_per_call_site": (
        "int inc(int p) { return p + 1; }",
        "int x = gid * 3; int y = gid ^ 6; int c = y + 1; int a = inc(x); int b = inc(y);"
        " out[gid] = (a * 100 + b) * 100 + c;",
    ),
    # a uniform guard under a partial mask: the lanes that take it are
    # the active ones, or none
    "uniform_guard": (
        "int pick(int p, int m) { if (m > 5) return p + 1; return p - 1; }",
        "int x = gid; if (gid & 1) x = pick(gid, n); out[gid] = x;",
    ),
    # guards before and after a load: split, then selected
    "masked_then_selected": (
        "int f(__global const int *d, int i, int m) {"
        " if (i > m) return 7; int v = d[i]; if (v > 15) return v; int w = v * m; if (w < 30) return 1; return w; }",
        "int acc = 0; for (int s = 0; s < n; s++) acc += f(data, (gid + s) & 15, n); out[gid] = acc;",
    ),
    # a call inside a divergent loop stays a call
    "call_in_divergent_loop": (
        "int sq(int p) { if (p < 0) return 0; return p * p; }",
        "int acc = 0; for (int s = 0; s < gid % 5; s++) acc += sq(s - 1); out[gid] = acc;",
    ),
    # a helper's variable declared again in the loop is not invariant
    # there, though it was declared before it
    "inlined_before_and_in_loop": (
        "int sq1(int p) { int q = p * p; return q + 1; }",
        "int acc = sq1(gid); for (int s = 0; s < n; s++) acc += sq1(s) * 3; out[gid] = acc;",
    ),
    # a value stored to a variable is not hoisted: an owner updated in
    # place would change it for the next iteration
    "stored_invariant": (
        "",
        "int x = gid * 3; int acc = 0;"
        " for (int s = 0; s < n; s++) { int d = x * 3; if (gid & 1) d++; acc += d; } out[gid] = acc;",
    ),
    # a hoisted value never heads an in-place chain
    "hoisted_chain_head": (
        "",
        "int x = gid * 3; int y = gid ^ 5; int acc = 0;"
        " for (int s = 0; s < n; s++) acc += (x - y) * s + 1; out[gid] = acc;",
    ),
    # a variable declared in the loop is not invariant, though nothing
    # assigns it
    "declared_in_loop": (
        "",
        "int x = gid + 1; int acc = 0; for (int s = 0; s < n; s++) { int t = s * 2; acc += (t * x) ^ 3; } out[gid] = acc;",
    ),
    # hoisted before the innermost uniform loop only: a divergent inner
    # loop compacts without it
    "divergent_inner_loop": (
        "",
        "int x = gid * 3; int acc = 0; for (int s = 0; s < n; s++) {"
        " for (int j = 0; j < (gid + s) % 6; j++) acc += (x - s) ^ (x * 5 + 1); acc += x * 7 + 2; } out[gid] = acc;",
    ),
    # a per-lane hoisted value joins the compaction of its uniform loop
    "hoisted_and_compacted": (
        "int off(int p, int m) { if (p > m * 3) return m; return p ^ m; }",
        "int x = gid * 3; int acc = 0; if (gid % 3 == 0) {"
        " for (int s = 0; s < n; s++) acc += off(x + 1, n) + (x - 5) * s; } out[gid] = acc;",
    ),
}


def _hazard_source(case, wrapped):
    helpers, body = HAZARDS[case]
    if wrapped:
        helpers = re.sub(r"\) \{(.*)\}$", r") { {\1} }", helpers)
    return f"""
    {helpers}
    __kernel void k(__global int *out, __global const int *data, const int n) {{
        int gid = (int)get_global_id(0);
        {body}
    }}
    """


@pytest.mark.parametrize("case", sorted(HAZARDS))
def test_inlining_and_hoisting_hazards(case, floor):
    make = lambda: [np.zeros(24, dtype=np.int32), (np.arange(10, dtype=np.int32) * 7) % 23, 7]
    runs = []
    for wrapped in (False, True):
        program, outputs = _both(_hazard_source(case, wrapped), 24, make)
        stats = execute_kernel(program.kernel("k"), (24,), make())
        runs.append((stats.ops, outputs[0].tolist(), program.python_source.split("def _fn_k")[1]))
    (ops, out, kernel), (called_ops, called_out, called) = runs
    assert (ops, out) == (called_ops, called_out)
    helper = bool(HAZARDS[case][0])
    assert "# inlined" not in called and ("_fn_" in called) == helper
    inlined = helper and case != "call_in_divergent_loop"
    assert ("# inlined: " in kernel) == inlined and ("_fn_" in kernel) == (helper and not inlined)
    for hoisted in re.findall(r"(_t\d+) = .*# hoisted", kernel):  # never updated in place
        assert not re.search(rf"{hoisted} [-+*/&|^]= ", kernel)
    assert HAZARD_SHAPES.get(case, lambda kernel: True)(kernel), kernel


#: What the generated kernel of a case must show besides.
HAZARD_SHAPES = {
    "load_after_guard": lambda kernel: "_rt.split(" in kernel and "guards selected" not in kernel,
    "store_after_guard": lambda kernel: "_rt.split(" in kernel and "guards selected" not in kernel,
    "written_parameter": lambda kernel: re.search(r"\bp_\d+ = x_", kernel),
    "masked_then_selected": lambda kernel: "_rt.split(" in kernel and "guards selected" in kernel,
    "stored_invariant": lambda kernel: re.search(r"\n {8}d_\d+ = \(x_", kernel),  # in the loop
    "hoisted_chain_head": lambda kernel: re.search(r"_t\d+ = \(x_\d+ - y_\d+\)  # hoisted", kernel),
    "declared_in_loop": lambda kernel: "# hoisted" not in kernel,
    "divergent_inner_loop": lambda kernel: kernel.count("# hoisted") == 1,  # x * 7 + 2, not (x * 5 + 1)
    "hoisted_and_compacted": lambda kernel: re.search(r"= _rt\.compact\(.*, (_t\d+, )*_t\d+\)", kernel),
}


def test_osem_projector_inlines_pixel_at_and_hoists_its_uniform_work():
    source = compile_program(OSEM_PROGRAM).python_source
    for kernel in ("forward_project", "back_project", "back_project_ones"):
        body = source.split(f"def _fn_{kernel}(")[1].split("\ndef ")[0]
        loop = body[body.index("while _mn:") :]
        assert "_fn_pixel_at(" not in body and "# inlined: pixel_at" in loop
        assert "_np.float32(nsamp_" in body.split("# loop 2")[0]  # hoisted out of the loop
        assert not re.findall(r"_rt\.cast\((s|n|nsamp)_\d+,", loop)  # no cast of a uniform value in it
        assert "(bx_" in body.split("# loop 2")[0] and "(by_" in body.split("# loop 2")[0]
