"""A MOSI loop whose consumer is a server predicts no push.

The shape of ``python -m repro.bench.conformance --seed 312``: under
MOSI on two servers, a producer on ``node00`` refills one buffer each
round and a consumer on ``node01`` reads it.  The edge is stable, but
its consumer is a server, so no launch carries a push hint: each
round's consumer gets the bytes by the demand route, one
``BufferPeerTransferBatch`` hop, and the run ends with the bytes a
native run computes.
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
            cl.clFinish(producer_queue)
            consumer = cl.clCreateKernel(program, "sum2")
            for i, arg in enumerate((buffers[out], produced, produced, BUFFER_ELEMS)):
                cl.clSetKernelArg(consumer, i, arg)
            cl.clEnqueueNDRangeKernel(consumer_queue, consumer, (BUFFER_ELEMS,))
        cl.clFinish(consumer_queue)
    return [cl.clEnqueueReadBuffer(producer_queue, buffer)[0].tobytes() for buffer in buffers]


def test_a_server_consumer_loop_conforms_and_pushes_nothing():
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), coherence_protocol="mosi")
    final = _producer_consumer_passes(deployment.api)
    assert final == _producer_consumer_passes(NativeAPI(Host(GPU_SERVER)))
    # the consumer is a server: its hop takes the demand route
    assert deployment.driver.stats.speculative_pushes == 0
