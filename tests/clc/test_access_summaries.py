"""Access summaries (:mod:`repro.clc.access`): directed summaries of the
repository's kernels, and a soundness oracle — drawn programs run under
the interpreter with every ``__global`` buffer traced, and no byte read
or written may fall outside its summary."""

import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.mandelbrot import MANDELBROT_KERNEL
from repro.apps.osem.kernels import OSEM_PROGRAM
from repro.bench.smoke import gather_kernel_source
from repro.clc import compile_program, execute_kernel
from repro.clc.access import WHOLE, Launch, covers, kernel_summaries, launch_sections, section

sys.path.insert(0, os.path.dirname(__file__))
from test_differential import _Gen  # noqa: E402

TOUCH = """
__kernel void touch(__global int *x) {
    int i = (int)get_global_id(0);
    x[i] = x[i] + 1;
}
"""


def _summaries(source, kernel):
    return kernel_summaries(compile_program(source).analyzed.kernels[kernel])


def test_touch_reads_and_writes_the_bytes_its_work_items_index():
    (read, write, _cover) = _summaries(TOUCH, "touch")[0]
    launch = Launch((64,))
    assert section(read, 32 << 20, launch) == (0, 256)
    assert section(write, 32 << 20, launch) == (0, 256)
    assert section(write, 32 << 20, Launch((64,), (16,))) == (64, 256)


def test_mandelbrot_writes_its_whole_tile_and_reads_nothing():
    access = _summaries(MANDELBROT_KERNEL, "mandelbrot")[0]
    width, rows = 96, 7
    args = [None, width, 64, 3, 9, 0.0, 0.0, 0.1, 0.1, 50]
    launch = Launch((width, rows), args=args)
    nbytes = width * rows * 4
    assert launch_sections(access, nbytes, launch) == ((0, 0), (0, nbytes))
    # Every row the tile holds is below the image height: the guard
    # never fires, and the store covers the buffer.
    assert covers(access[2], nbytes, launch)
    # A tile whose last row lies past the image: its lanes return early.
    assert not covers(access[2], nbytes, Launch((width, rows), args=[*args[:2], 40, *args[3:]]))


@pytest.mark.parametrize("kernel, param", [("forward_project", 4), ("back_project", 5), ("back_project_ones", 4)])
def test_osem_image_and_corrections_are_whole(kernel, param):
    read, write, cover = _summaries(OSEM_PROGRAM, kernel)[param]
    assert read == WHOLE and cover is None
    assert write == (WHOLE if kernel != "forward_project" else None)


def test_the_smoke_gather_reads_its_tiles_whole():
    summaries = _summaries(gather_kernel_source(4), "gather")
    for j in range(1, 5):
        assert summaries[j][0] == WHOLE and summaries[j][1] is None
    assert summaries[0][0] is None


@pytest.mark.parametrize(
    "body",
    [
        "int j = i; j += 1; x[j] = 0;",  # assigned twice
        "for (int k = 0; k < 4; k++) x[i * 4 + k] = 0;",  # a loop counter
        "x[i / 2] = 0;",
        "x[i % 8] = 0;",
        "x[(uint)(i - 4)] = 0;",  # a conversion that can wrap
        "x[x[i] & 7] = 0;",  # data-dependent
        "atomic_add(&x[i], 1);",  # the pointer escapes
    ],
)
def test_an_index_the_pass_cannot_bound_is_the_whole_buffer(body):
    source = f"__kernel void k(__global int *x) {{ int i = (int)get_global_id(0); {body} }}"
    assert _summaries(source, "k")[0][1] == WHOLE


# ----------------------------------------------------------------------
# the soundness oracle
# ----------------------------------------------------------------------
class Traced(np.ndarray):
    """A buffer that records every element index read and written."""

    def __array_finalize__(self, obj):
        self.reads = getattr(obj, "reads", None)
        self.writes = getattr(obj, "writes", None)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            self.reads.add(int(i))
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        if isinstance(i, (int, np.integer)):
            self.writes.add(int(i))
        super().__setitem__(i, value)


def traced(array):
    out = array.view(Traced)
    out.reads, out.writes = set(), set()
    return out


def _oracle_kernel(seed):
    """A drawn ``_Gen`` body between a read and a write of ``side`` at
    affine indexes drawn from ``seed``, then a read at ``x``: affine
    unless the body assigned ``x``."""
    rng = random.Random(seed)
    gen = _Gen(seed, exits=("break", "continue", "return"), calls=True, atomics=True, aliases=True)
    stride, before, after = rng.choice((1, 2, 3)), rng.randint(0, 4), rng.randint(0, 4)
    body = gen.block(("a", "b"), 2, False)
    shift = rng.choice(("gid", "(gid + a)", "(2 * gid - a)"))
    source = f"""
    int same(int p) {{ return p; }}
    int bump(int p, int g) {{ if ((g & 1) == 0) p++; if (g > 3) p -= 2; return p + g; }}
    int helper(int a, int b) {{ return (a ^ b) & 7; }}
    __kernel void k(__global int *out, __global int *bins, __global int *side, const int a, const int b) {{
        int gid = (int)get_global_id(0);
        int x = gid * a + 1;
        int y = (gid ^ b) - 3;
        int z = a - b;
        x += side[gid * {stride} + {before}];
        {body}
        if (x >= 0 && x < 16) z += side[x];
        side[{shift} * {stride} + {after} + 16] = y;
        out[gid] = x ^ (y * 31) ^ (z * 17);
    }}
    """
    return source, stride


@pytest.mark.parametrize("index", ["get_group_id(0)", "get_local_id(0)", "2 * get_group_id(0) + get_local_id(0)"])
@pytest.mark.parametrize("local_size", [None, (40,)], ids=["runtime-local", "local-40"])
def test_work_group_ids_stay_inside_their_summary(index, local_size):
    """Without a local size the runtime picks one (a divisor of the
    global size up to 256): the summary must hold for any it picks."""
    kernel = compile_program(
        f"__kernel void k(__global int *out) {{ out[(int){index}] = out[(int){index}] + 1; }}"
    ).kernel("k")
    out = traced(np.zeros(600, dtype=np.int32))
    execute_kernel(kernel, (600,), [out], local_size=local_size, backend="interp")
    read, write, _cover = kernel.access[0]
    launch = Launch((600,), local_size=local_size)
    for touched, summary in ((out.reads, read), (out.writes, write)):
        offset, nbytes = section(summary, out.nbytes, launch)
        assert touched and offset <= min(touched) * 4 and max(touched) * 4 + 4 <= offset + nbytes


@given(seed=st.integers(0, 2**32), lanes=st.sampled_from((1, 3, 8)), a=st.integers(-2, 4), b=st.integers(-5, 9))
@settings(max_examples=200, deadline=None)
def test_no_byte_is_touched_outside_its_summary(seed, lanes, a, b):
    source, stride = _oracle_kernel(seed)
    program = compile_program(source)
    kernel = program.kernel("k")
    out = traced(np.zeros(lanes, dtype=np.int32))
    bins = traced(np.zeros(8, dtype=np.int32))
    side = traced(np.zeros(3 * (lanes + 4) * stride + 64, dtype=np.int32))
    args = [out, bins, side, a, b]
    try:
        execute_kernel(kernel, (lanes,), args, backend="interp")
    except Exception:  # an out-of-bounds drawn index: nothing to judge
        return
    launch = Launch((lanes,), args=args)
    for index, (read, write, _cover) in kernel.access.items():
        buffer = args[index]
        for touched, summary in ((buffer.reads, read), (buffer.writes, write)):
            offset, nbytes = section(summary, buffer.nbytes, launch)
            for element in touched:
                assert offset <= element * 4 and element * 4 + 4 <= offset + nbytes, (source, index)
