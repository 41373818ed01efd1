"""Mandelbrot application tests: all three versions agree pixel-for-pixel."""

import numpy as np
import pytest

from repro.apps.mandelbrot import (
    MandelbrotConfig,
    mandelbrot_reference,
    render_dopencl,
    render_mpi_opencl,
    render_native,
)
from repro.hw import Host, WESTMERE_NODE
from repro.hw.cluster import make_ib_cpu_cluster
from repro.testbed import deploy_dopencl, native_api_on

CONFIG = MandelbrotConfig(width=64, height=48, max_iter=60)


def test_reference_looks_like_mandelbrot():
    image = mandelbrot_reference(CONFIG)
    assert image.shape == (48, 64)
    assert image.max() == CONFIG.max_iter  # interior points saturate
    assert image.min() == 0 or image.min() >= 0
    assert 0 < (image == CONFIG.max_iter).mean() < 0.9


def test_native_matches_reference():
    api = native_api_on(Host(WESTMERE_NODE, name="standalone"))
    result = render_native(api, CONFIG)
    np.testing.assert_array_equal(result.image, mandelbrot_reference(CONFIG))
    assert result.timings.initialization > 0
    assert result.timings.execution > 0


@pytest.mark.parametrize("n_servers", [1, 2, 4])
def test_dopencl_matches_reference(n_servers):
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers))
    result = render_dopencl(deployment.api, CONFIG)
    assert result.n_devices == n_servers
    np.testing.assert_array_equal(result.image, mandelbrot_reference(CONFIG))


def test_mpi_opencl_matches_reference():
    cluster = make_ib_cpu_cluster(4)
    result = render_mpi_opencl(cluster.network, cluster.servers, CONFIG)
    np.testing.assert_array_equal(result.image, mandelbrot_reference(CONFIG))
    assert result.backend == "mpi+opencl"
    assert result.timings.total > 0


def test_row_cyclic_assignment_balances_work():
    rows = [CONFIG.rows_for(d, 4) for d in range(4)]
    assert sum(r.size for r in rows) == CONFIG.height
    sizes = [r.size for r in rows]
    assert max(sizes) - min(sizes) <= 1
    # no overlaps
    all_rows = np.concatenate(rows)
    assert np.unique(all_rows).size == CONFIG.height


#: Rescale kernel cost so compute dominates RTTs, as at paper-size
#: workloads (4800x3200, up to 20000 iterations per pixel).
SCALE = 5000.0


def test_more_devices_reduce_execution_time():
    t_exec = {}
    for n in (1, 4):
        deployment = deploy_dopencl(make_ib_cpu_cluster(n), workload_scale=SCALE)
        result = render_dopencl(deployment.api, CONFIG)
        t_exec[n] = result.timings.execution
    assert t_exec[4] < t_exec[1]
    # Roughly linear scaling (launch overheads keep it under ideal 4x).
    assert t_exec[1] / t_exec[4] > 2.0


def test_dopencl_overhead_is_fixed_not_proportional():
    """Fig. 4: 'the dOpenCL program introduces only a moderate and fixed
    overhead ... only introduced by program initialization and data
    transfer'.

    Pinned to ``batch_window=0``: the figure models the paper's
    dOpenCL, where every daemon compiles during initialization.  On the
    pipeline the compile is deferred onto the daemon timeline (and
    amortised cluster-wide by the build cache), so the init segment no
    longer carries it — covered by
    ``test_program_cache_shrinks_init_overhead``."""
    cluster = make_ib_cpu_cluster(4)
    mpi = render_mpi_opencl(cluster.network, cluster.servers, CONFIG, workload_scale=SCALE)
    deployment = deploy_dopencl(make_ib_cpu_cluster(4), workload_scale=SCALE, batch_window=0)
    dcl = render_dopencl(deployment.api, CONFIG)
    # Execution segments are close (same kernels, same devices)...
    assert dcl.timings.execution == pytest.approx(mpi.timings.execution, rel=0.3)
    # ...while dOpenCL pays extra in init (source shipping, object setup).
    assert dcl.timings.initialization > mpi.timings.initialization


def test_program_cache_shrinks_init_overhead():
    """The pipeline's content-addressed build cache moves the one-time
    compile out of the init segment (deferred, one compile per cluster)
    without changing the rendered image or the total-work story: only
    one daemon compiles, the rest adopt the shipped binary, while the
    paper's reference path compiles on every daemon."""
    cached = deploy_dopencl(make_ib_cpu_cluster(4), workload_scale=SCALE)
    baseline = deploy_dopencl(make_ib_cpu_cluster(4), workload_scale=SCALE, batch_window=0)
    r_cached = render_dopencl(cached.api, CONFIG)
    r_base = render_dopencl(baseline.api, CONFIG)
    np.testing.assert_array_equal(r_cached.image, r_base.image)
    assert r_cached.timings.initialization < r_base.timings.initialization
    assert sum(d.gcf.stats.programs_built for d in cached.daemons) == 1
    assert sum(d.gcf.stats.binaries_shipped for d in cached.daemons) == 3
    assert all(d.gcf.stats.programs_built == 1 for d in baseline.daemons)
    assert all(len(d.buildcache) == 0 for d in baseline.daemons)
