"""OSEM-iteration perf smoke: a real repeated-arg workload end to end.

List-mode OSEM (the paper's Fig. 5 study) re-binds the same kernel
arguments every subset of every iteration, so its forwarded command
traffic repeats byte for byte — the daemons' batch decode cache answers
most of it.

The workload is the Fig. 5 offload scenario shrunk to the tier-1 time
budget: the desktop reconstructs on the remote GPU server's 4 devices
through dOpenCL.  Per iteration we record the client's round trips and
the daemons' aggregate decode-cache hits; the gate asserts that
iterations are steady-state (constant round trips and decode hits), that
the program build cache holds its floors and that predictive pushes
commit.  Headline counters land in ``BENCH_osem.json`` at the repo root.
"""

from __future__ import annotations


from repro.apps.osem import ListModeOSEM, disk_phantom, generate_events
from repro.bench.harness import ExperimentRecord
from repro.hw.cluster import make_desktop_and_gpu_server, make_ib_cpu_cluster
from repro.ocl.constants import CL_DEVICE_TYPE_GPU
from repro.testbed import deploy_dopencl

#: Reduced Fig. 5 configuration (same call pattern, tier-1 budget).
OSEM_IMAGE_SIZE = 24
OSEM_SUBSETS = 2
OSEM_SAMPLES = 24
OSEM_EVENTS = 2000
OSEM_ITERATIONS = 3

#: Servers in the repeat-setup cluster phase (the program-cache floor:
#: two tenants building the identical source on this many daemons must
#: compile exactly once cluster-wide).
CLUSTER_SERVERS = 3

#: The shared source of the cluster repeat-setup phase.
CLUSTER_SOURCE = """
__kernel void saxpy(__global float *y, __global const float *x,
                    const float a, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) y[i] = a * x[i] + y[i];
}
"""


def _iteration_round_trips_push_off() -> int:
    """Steady-state iteration round trips with ``push_transfers=False``
    on a fresh Fig. 5 deployment — the PR-9 ablation cell: demand-driven
    coherence pays one gang fetch per subset that predictive pushes move
    off the client's critical path."""
    deployment = deploy_dopencl(
        make_desktop_and_gpu_server(), push_transfers=False
    )
    api = deployment.api
    gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    osem = ListModeOSEM(
        api, gpus, image_size=OSEM_IMAGE_SIZE, n_subsets=OSEM_SUBSETS, n_samples=OSEM_SAMPLES
    )
    events = generate_events(disk_phantom(OSEM_IMAGE_SIZE), OSEM_EVENTS, seed=7)
    osem.setup(events)
    before = 0
    for _ in range(OSEM_ITERATIONS):
        before = deployment.driver.stats.round_trips
        osem.iterate()
    return deployment.driver.stats.round_trips - before


def _cluster_repeat_setup() -> dict:
    """The cluster-wide build floor: two tenants build the identical
    source on a :data:`CLUSTER_SERVERS`-daemon cluster.  The first
    tenant's build compiles on one daemon and ships the binary to the
    siblings; every other resolution — the first tenant's other two
    daemons and all three of the second tenant's — is a build-cache
    hit.  Returns the cluster-aggregate build counters."""
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(CLUSTER_SERVERS, n_clients=2), n_clients=2
    )
    for api in deployment.apis:
        devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
        ctx = api.clCreateContext(devices)
        queue = api.clCreateCommandQueue(ctx, devices[0])
        program = api.clCreateProgramWithSource(ctx, CLUSTER_SOURCE)
        api.clBuildProgram(program)
        api.clFinish(queue)
    stats = deployment.daemon_stats()
    return {
        key: stats[key]
        for key in ("programs_built", "binaries_shipped", "build_cache_hits",
                    "build_seconds_saved")
    }


def bench_osem() -> ExperimentRecord:
    """Run the mini Fig. 5 OSEM offload and record per-iteration
    round-trip and cache-hit counters (one row per iteration, plus the
    setup row, the push-off ablation iterations and the cluster
    repeat-setup build-floor phase)."""
    record = ExperimentRecord(
        experiment="bench_osem",
        title="OSEM iterations: steady-state forwarding on repeated kernel args",
        columns=[
            "phase",
            "round_trips",
            "batched_commands",
            "decode_cache_hits",
            "bytes_sent",
            "programs_built",
        ],
        notes=(
            f"{OSEM_IMAGE_SIZE}x{OSEM_IMAGE_SIZE} image, {OSEM_SUBSETS} subsets, "
            f"{OSEM_EVENTS} events, {OSEM_ITERATIONS} iterations on the Fig. 5 "
            "desktop->GPU-server offload; acceptance: steady-state iterations "
            "cost constant round trips and daemon decode-cache hits; "
            f"two tenants on {CLUSTER_SERVERS} daemons compile "
            "the shared source exactly once cluster-wide, and predictive "
            "pushes (push_transfers) hold steady-state iteration round "
            "trips strictly below the push-off ablation"
        ),
    )
    deployment = deploy_dopencl(make_desktop_and_gpu_server())
    api = deployment.api
    driver = deployment.driver
    gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    osem = ListModeOSEM(
        api, gpus, image_size=OSEM_IMAGE_SIZE, n_subsets=OSEM_SUBSETS, n_samples=OSEM_SAMPLES
    )
    events = generate_events(disk_phantom(OSEM_IMAGE_SIZE), OSEM_EVENTS, seed=7)

    def counters():
        daemons = deployment.daemon_stats()
        return {
            "round_trips": driver.stats.round_trips,
            "batched_commands": driver.stats.batched_commands,
            "decode_cache_hits": daemons["decode_cache_hits"],
            "bytes_sent": driver.stats.bytes_sent,
            "programs_built": daemons["programs_built"],
        }

    def add_row(phase: str, before, after) -> None:
        record.add(phase=phase, **{k: after[k] - before[k] for k in before})

    before = counters()
    osem.setup(events)
    add_row("setup", before, counters())
    for i in range(OSEM_ITERATIONS):
        before = counters()
        osem.iterate()
        add_row(f"iteration_{i + 1}", before, counters())
    # Push-protocol verdict for the whole run (counters are cumulative,
    # so they are read once after the last iteration): the client's
    # hint/commit/waste tally plus the daemons' aggregate executions.
    daemons = deployment.daemon_stats()
    record.add(
        phase="push_counters",
        speculative_pushes=driver.stats.speculative_pushes,
        daemon_pushes=daemons["daemon_pushes"],
        push_bytes=daemons["push_bytes"],
        push_commits=driver.stats.push_commits,
        wasted_pushes=driver.stats.wasted_pushes,
    )
    # Ablation cells + cluster floor, on their own fresh deployments so
    # the iteration rows above stay untouched by the extra phases.
    record.add(phase="iteration_push_off", round_trips=_iteration_round_trips_push_off())
    record.add(phase="cluster_repeat_setup", **_cluster_repeat_setup())
    return record


def assert_osem_record(record: ExperimentRecord) -> None:
    """The OSEM smoke gate: iterations are steady-state, predictive
    pushes commit, and the program build cache holds its floor (one
    compile per unique source cluster-wide)."""
    iterations = [
        row
        for row in record.rows
        if row["phase"].startswith("iteration_") and row["phase"][10:].isdigit()
    ]
    assert len(iterations) == OSEM_ITERATIONS
    steady = iterations[1:]
    for row in steady:
        assert row["batched_commands"] > 0
    # Steady state is genuinely steady: identical communication per
    # iteration (round trips and decode-cache hits), not a one-time
    # warm-up effect.
    assert len({row["round_trips"] for row in steady}) == 1
    assert len({row["decode_cache_hits"] for row in steady}) == 1
    rows = {row["phase"]: row for row in record.rows}
    # PR-9 gate: predictive pushes take the steady-state gang fetch off
    # the client's critical path — every iteration costs strictly fewer
    # round trips than the push-off ablation, the pushes genuinely
    # commit, and the structural invariant
    # ``push_commits + wasted_pushes <= daemon_pushes <=
    # speculative_pushes`` holds for the whole run.
    push = rows["push_counters"]
    for row in steady:
        assert row["round_trips"] < rows["iteration_push_off"]["round_trips"]
    assert push["push_commits"] > 0
    assert (
        push["push_commits"] + push["wasted_pushes"]
        <= push["daemon_pushes"]
        <= push["speculative_pushes"]
    )
    # OSEM builds one program; the offload daemon compiles it once.
    assert rows["setup"]["programs_built"] == 1
    # The hard cluster floor: 2 tenants x CLUSTER_SERVERS daemons, one
    # unique (source, options) pair -> exactly one compile, the binary
    # shipped to every sibling, everything else a cache hit.
    cluster = rows["cluster_repeat_setup"]
    assert cluster["programs_built"] == 1
    assert cluster["binaries_shipped"] == CLUSTER_SERVERS - 1
    assert cluster["build_cache_hits"] == 2 * CLUSTER_SERVERS - 1
    assert cluster["build_seconds_saved"] > 0.0


def osem_payload(record: ExperimentRecord) -> dict:
    """The headline counters of an OSEM run as the flat dict committed
    to ``BENCH_osem.json`` — the ``payload`` column of
    ``repro.tools.benchdiff.SNAPSHOTS``, so the recorded snapshot and
    the comparison can never drift apart."""
    rows = {row["phase"]: row for row in record.rows}
    steady = rows[f"iteration_{OSEM_ITERATIONS}"]
    return {
        "experiment": record.experiment,
        "image_size": OSEM_IMAGE_SIZE,
        "n_subsets": OSEM_SUBSETS,
        "n_events": OSEM_EVENTS,
        "n_iterations": OSEM_ITERATIONS,
        "setup_round_trips": rows["setup"]["round_trips"],
        "programs_built": rows["setup"]["programs_built"],
        "iteration_round_trips": steady["round_trips"],
        "iteration_round_trips_push_off": rows["iteration_push_off"]["round_trips"],
        "push_commits": rows["push_counters"]["push_commits"],
        "wasted_pushes": rows["push_counters"]["wasted_pushes"],
        "iteration_batched_commands": steady["batched_commands"],
        "iteration_decode_cache_hits": steady["decode_cache_hits"],
        "cluster_programs_built": rows["cluster_repeat_setup"]["programs_built"],
        "cluster_binaries_shipped": rows["cluster_repeat_setup"]["binaries_shipped"],
        "cluster_build_cache_hits": rows["cluster_repeat_setup"]["build_cache_hits"],
    }
