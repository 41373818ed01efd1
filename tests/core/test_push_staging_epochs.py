"""A speculative push is staged per epoch, so each windowed commit finds
its own bytes.

The shape of ``python -m repro.bench.conformance --seed 312``: under
MOSI on two servers, a producer on ``node00`` refills one buffer each
round and a consumer on ``node01`` reads it.  Every producer completion
pushes the buffer to ``node01``; the client windows the ``PushCommit``
for that epoch toward ``node01`` and the next round's completion pushes
the next epoch there before that window flushes.  With one staging slot
per ``(client, buffer)`` the newer push overwrote the bytes of the
windowed commit, which then failed (``no staged push for buffer N at
epoch E``) out of the next ``clFinish``.
"""

import numpy as np

from repro.bench.conformance import BUFFER_ELEMS, PROGRAM_SOURCE
from repro.hw import GPU_SERVER, Host
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import NativeAPI
from repro.ocl.constants import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE
from repro.testbed import deploy_dopencl

#: (consumer's output buffer, producer's base value) per pass, three
#: producer/consumer rounds each: seed 312's two ``loop`` ops.
PASSES = ((1, 0.751), (2, 0.754))
ROUNDS = 3


def _producer_consumer_passes(cl):
    """Run the passes on ``cl``'s first two devices; the bytes of every
    buffer at the end."""
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:2]
    ctx = cl.clCreateContext(devices)
    producer_queue, consumer_queue = (cl.clCreateCommandQueue(ctx, device) for device in devices)
    program = cl.clCreateProgramWithSource(ctx, PROGRAM_SOURCE)
    cl.clBuildProgram(program)
    rng = np.random.default_rng(312)
    buffers = [
        cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, 4 * BUFFER_ELEMS, init)
        for init in rng.uniform(-4.0, 4.0, (3, BUFFER_ELEMS)).astype(np.float32)
    ]
    produced = buffers[0]
    for out, base in PASSES:
        for r in range(ROUNDS):
            producer = cl.clCreateKernel(program, "fill")
            for i, arg in enumerate((produced, np.float32(base + r), BUFFER_ELEMS)):
                cl.clSetKernelArg(producer, i, arg)
            cl.clEnqueueNDRangeKernel(producer_queue, producer, (BUFFER_ELEMS,))
            cl.clFinish(producer_queue)  # the completion carries the push
            consumer = cl.clCreateKernel(program, "sum2")
            for i, arg in enumerate((buffers[out], produced, produced, BUFFER_ELEMS)):
                cl.clSetKernelArg(consumer, i, arg)
            cl.clEnqueueNDRangeKernel(consumer_queue, consumer, (BUFFER_ELEMS,))
        cl.clFinish(consumer_queue)
    return [cl.clEnqueueReadBuffer(producer_queue, buffer)[0].tobytes() for buffer in buffers]


def test_windowed_commits_of_two_epochs_each_apply_their_own_push():
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), coherence_protocol="mosi")
    final = _producer_consumer_passes(deployment.api)
    assert final == _producer_consumer_passes(NativeAPI(Host(GPU_SERVER)))
    stats = deployment.driver.stats
    assert stats.speculative_pushes > 0 and stats.push_commits > 0
    # every push ends committed or wasted, none twice
    assert stats.push_commits + stats.wasted_pushes == stats.speculative_pushes


def test_releasing_a_buffer_drops_its_wasted_staged_push():
    """A push staged on the consumer's daemon and then wasted (a host
    write made a newer epoch) never gets a commit; releasing the buffer
    must drop its staging row rather than keep the bytes forever."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), coherence_protocol="mosi")
    cl = deployment.api
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:2]
    ctx = cl.clCreateContext(devices)
    producer_queue, consumer_queue = (cl.clCreateCommandQueue(ctx, device) for device in devices)
    program = cl.clCreateProgramWithSource(ctx, PROGRAM_SOURCE)
    cl.clBuildProgram(program)
    produced, out = (cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * BUFFER_ELEMS) for _ in "ab")

    def launch(queue, name, args):
        kernel = cl.clCreateKernel(program, name)
        for i, arg in enumerate(args):
            cl.clSetKernelArg(kernel, i, arg)
        cl.clEnqueueNDRangeKernel(queue, kernel, (BUFFER_ELEMS,))
        cl.clFinish(queue)

    for r in range(4):  # the producer -> consumer edge, then one more push
        launch(producer_queue, "fill", (produced, np.float32(r), BUFFER_ELEMS))
        if r < 3:
            launch(consumer_queue, "sum2", (out, produced, produced, BUFFER_ELEMS))
    consumer_daemon, client = deployment.daemons[1], deployment.driver.gcf.name
    assert consumer_daemon.staged_pushes(client) == 1
    cl.clEnqueueWriteBuffer(producer_queue, produced, True, 0, np.zeros(BUFFER_ELEMS, np.float32))
    assert deployment.driver.stats.wasted_pushes == 1
    cl.clReleaseMemObject(produced)
    cl.clFinish(producer_queue)
    cl.clFinish(consumer_queue)
    assert consumer_daemon.staged_pushes(client) == 0
