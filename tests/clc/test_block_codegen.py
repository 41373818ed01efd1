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
        "# block: 14 ops",
        "# mask restored: if 3 parks nobody for good",
        "# mask restored: loop 2 parks nobody for good",
        "# the then-arm of if 1 always leaves",
        "# uniform: nsamp_12, s_42",
        "# merge kept: acc_41 live after loop 2",
        "# merge elided: s_42 dead after loop 2",
        "# loop 2: compactable",
    ):
        assert comment in source, comment
    assert "_ret " not in source and "_ret," not in source  # no loop returns: nobody keeps _ret


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
    [(_forward_project_launch, 3500), (_mandelbrot_frame, 4500)],
    ids=["forward_project", "mandelbrot"],
)
def test_python_level_calls_per_launch_stay_within_budget(launch, budget):
    """The per-op generator made 8 182 and 14 295 calls for these two
    launches; a NumPy call costs about a microsecond of dispatch whatever
    the lane count, so the count *is* the host cost of uniform kernels."""
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
