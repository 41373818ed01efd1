"""Golden op accounting of the vector backend.

``ExecutionStats.ops`` feeds ``clc/costmodel.py`` and through it every
virtual-time number in the repository, so a change to the code generator
or the vector runtime must charge *exactly* what it charged before.  The
table below was captured at commit ``bb3e4d3`` (PR 13, the parent of the
liveness/compaction change) and is compared with ``==``: every op weight
is an integer-valued float, so the sums are exact in float64 whatever
the chunking or the order of the charges.

The control-flow kernels are copies of the ones in
``test_control_flow.py`` on purpose: editing a test there must not
silently move a golden number here.
"""

import functools

import numpy as np
import pytest

from repro.apps.mandelbrot import MANDELBROT_KERNEL
from repro.apps.osem import disk_phantom, generate_events
from repro.apps.osem.kernels import OSEM_PROGRAM
from repro.bench.stream import frame_config
from repro.clc import LocalMemory, compile_program, execute_kernel

CONTROL_FLOW = """
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

int pick(int x) {
    if (x > 5) return 100;
    if (x > 2) return 50;
    return x;
}
__kernel void helper_return(__global int *out) {
    int gid = (int)get_global_id(0);
    out[gid] = pick(gid % 10);
}

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

__kernel void hist(__global const int *data, __global int *bins, const int n) {
    int gid = (int)get_global_id(0);
    if (gid < n) {
        atomic_add(&bins[data[gid]], 1);
    }
}
"""

#: Work-items of the control-flow launches (a multiple of the 32-lane
#: work-group ``block_sum`` needs, and of every ``max_lanes`` below).
N = 256
GROUP = 32

#: One fixed OSEM event set: 32x32 image, 512 events, 16 samples.
OSEM_N, OSEM_EVENTS, OSEM_SAMPLES = 32, 512, 16


def _mandelbrot(depth):
    cfg = frame_config(depth)
    args = [
        np.zeros(cfg.width * cfg.height, dtype=np.int32), cfg.width, cfg.height, 0, 1,
        np.float32(cfg.x0), np.float32(cfg.y0), np.float32(cfg.dx), np.float32(cfg.dy),
        cfg.max_iter,
    ]
    return MANDELBROT_KERNEL, "mandelbrot", (cfg.width, cfg.height), None, args


def _osem(kernel):
    ev = generate_events(disk_phantom(OSEM_N), OSEM_EVENTS, seed=7)
    npix = OSEM_N * OSEM_N
    lors = [ev.x1, ev.y1, ev.x2, ev.y2]
    tail = [ev.count, OSEM_N, OSEM_SAMPLES]
    ones = np.ones(npix, dtype=np.float32)
    if kernel == "forward_project":
        args = lors + [ones, np.zeros(ev.count, dtype=np.float32)] + tail
    elif kernel == "back_project":
        args = lors + [np.full(ev.count, 0.5, dtype=np.float32), np.zeros(npix, dtype=np.float32)] + tail
    elif kernel == "back_project_ones":
        args = lors + [np.zeros(npix, dtype=np.float32)] + tail
    else:
        return OSEM_PROGRAM, "update", (npix,), None, [ones.copy(), ones, ones * 2, npix - 5]
    return OSEM_PROGRAM, kernel, (ev.count,), None, args


def _control_flow(kernel):
    rng = np.random.default_rng(3)
    out = np.zeros(N, dtype=np.int32)
    local = None
    if kernel == "hist4":
        args = [rng.integers(0, 4, size=30).astype(np.int32), out, 30]
    elif kernel == "block_sum":
        local = (GROUP,)
        args = [
            rng.random(N, dtype=np.float32), np.zeros(N // GROUP, dtype=np.float32),
            LocalMemory(GROUP * 4),
        ]
    elif kernel == "hist":
        args = [rng.integers(0, 16, size=N).astype(np.int32), np.zeros(16, dtype=np.int32), N - 56]
    else:
        args = [out]
    return CONTROL_FLOW, kernel, (N,), local, args


CASES = {
    **{f"mandelbrot_d{d}": (_mandelbrot, d) for d in (0, 5, 11)},
    **{f"osem_{k}": (_osem, k) for k in ("forward_project", "back_project", "back_project_ones", "update")},
    **{f"cf_{k}": (_control_flow, k) for k in ("weird", "nest", "helper_return", "hist4", "block_sum", "hist")},
}

#: case -> (ops, work_items), captured at commit bb3e4d3.
GOLDEN = {
    "mandelbrot_d0": (74425068.0, 49152),
    "mandelbrot_d5": (215724912.0, 49152),
    "mandelbrot_d11": (224901268.0, 49152),
    "osem_forward_project": (322111.0, 512),
    "osem_back_project": (330930.0, 512),
    "osem_back_project_ones": (326834.0, 512),
    "osem_update": (21414.0, 1024),
    "cf_weird": (128328.0, 256),
    "cf_nest": (194886.0, 256),
    "cf_helper_return": (2716.0, 256),
    "cf_hist4": (136960.0, 256),
    "cf_block_sum": (16360.0, 256),
    "cf_hist": (2368.0, 256),
}


_compiled = functools.lru_cache(maxsize=None)(compile_program)  # three sources, 46 tests


def _run(case, max_lanes=None):
    make, arg = CASES[case]
    source, kernel, gsize, local, args = make(arg)
    kwargs = {} if max_lanes is None else {"max_lanes": max_lanes}
    stats = execute_kernel(_compiled(source).kernel(kernel), gsize, args, local_size=local, **kwargs)
    return stats.ops, stats.work_items


def test_golden_table_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_ops_and_work_items_equal_the_parent(case):
    assert _run(case) == GOLDEN[case]


@pytest.mark.parametrize("max_lanes", [64, 4096, 1 << 16])
@pytest.mark.parametrize("case", sorted(c for c in CASES if not c.startswith("mandelbrot")))
def test_ops_do_not_depend_on_chunking(case, max_lanes):
    assert _run(case, max_lanes) == GOLDEN[case]


@pytest.mark.parametrize("max_lanes", [4096, 1 << 16])
def test_mandelbrot_ops_do_not_depend_on_chunking(max_lanes):
    # 64-lane chunks of a 49 152-lane frame are 768 launches of a
    # 400-iteration loop: covered by the small kernels above instead.
    assert _run("mandelbrot_d5", max_lanes) == GOLDEN["mandelbrot_d5"]
