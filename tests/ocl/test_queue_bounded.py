"""``CommandQueue`` keeps no history: only the unresolved events plus a
running maximum of resolved ``end`` times.

``finish`` used to walk a list of every event the queue ever enqueued —
one of the run-length-dependent host costs of a long-lived daemon.  The
list-walking version is kept here verbatim as the oracle: over any mix
of enqueues, gated enqueues, user-event completions and finishes the
bounded queue returns the same instant and raises the same deadlock
error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import GPU_SERVER, Host
from repro.ocl import CL_DEVICE_TYPE_GPU, CLError, ErrorCode, NativeAPI
from repro.ocl.constants import CL_COMPLETE, CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE


def finish_by_walking(events, t):
    """The pre-change ``CommandQueue.finish``, over an explicit list."""
    latest = t
    for ev in events:
        if not ev.resolved:
            raise CLError(
                ErrorCode.CL_INVALID_OPERATION,
                "deadlock: clFinish with commands gated on an incomplete user event",
            )
        latest = max(latest, ev.end)
    return latest


def _queue(properties=0):
    api = NativeAPI(Host(GPU_SERVER))
    dev = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    return api, ctx, api.clCreateCommandQueue(ctx, dev, properties)


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.floats(0.0, 1e-3)),
        st.tuples(st.just("gated"), st.integers(0, 7)),
        st.tuples(st.just("user_event"), st.just(0)),
        st.tuples(st.just("complete"), st.integers(0, 7)),
        st.tuples(st.just("finish"), st.floats(0.0, 1e-2)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(steps=STEPS, out_of_order=st.booleans())
def test_finish_agrees_with_the_list_walking_oracle(steps, out_of_order):
    api, ctx, queue = _queue(CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE if out_of_order else 0)
    enqueued, user_events, t = [], [], 0.0
    for kind, arg in steps:
        t += 1e-6
        if kind == "enqueue":
            enqueued.append(queue.enqueue_marker(t + arg))
        elif kind == "gated" and user_events:
            gate = user_events[arg % len(user_events)]
            enqueued.append(queue.enqueue_barrier(t, wait_for=[gate]))
        elif kind == "user_event":
            user_events.append(api.clCreateUserEvent(ctx))
        elif kind == "complete" and user_events:
            gate = user_events[arg % len(user_events)]
            if not gate.resolved:
                gate.set_status(CL_COMPLETE, t)
        elif kind == "finish":
            try:
                expected = finish_by_walking(enqueued, t + arg)
            except CLError as exc:
                with pytest.raises(CLError) as err:
                    queue.finish(t + arg)
                assert (err.value.code, str(err.value)) == (exc.code, str(exc))
            else:
                assert queue.finish(t + arg) == expected
    assert len(queue._unresolved) == sum(not ev.resolved for ev in enqueued)


def test_ten_thousand_enqueue_finish_cycles_leave_nothing_pending():
    _, _, queue = _queue()
    t = 0.0
    for _ in range(10_000):
        event = queue.enqueue_marker(t)
        t = queue.finish(t) + 1e-6
        assert t > event.end
    assert not queue._unresolved
    assert not hasattr(queue, "events")
