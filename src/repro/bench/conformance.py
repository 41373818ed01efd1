"""Randomized differential conformance harness for the forwarding pipeline.

The paper's headline property is that dOpenCL preserves *unmodified
OpenCL semantics*; the forwarding pipeline (``batch_window > 0``: send
windows, handle promises, prefix flushing, ``clFlush`` barriers,
transfer coalescing in every direction, gang reads, deferred reads,
predictive pushes, the build cache) being "just" a communication
optimisation means every way of running a program must produce
**bit-identical buffer contents**, **identical coherence-directory
state**, the same errors and the same build logs.  A seeded generator
(:func:`generate_program`) builds small workload DAGs — multi-queue
kernels, user-event gating, blocking / non-blocking / deferred
transfers, ``clFlush``/``clFinish``, mid-run creation failures,
duplicate and failing program builds, producer->consumer loops — and
**one executor**, :class:`ProgramRun`, interprets them against whatever
API object it is handed.  Three drivers deploy, arm and compare:

* :func:`run_seed` — the program under the three :data:`CONFIGS`
  (``sync``: the paper's reference path, ``batch_window=0`` with pushes
  off too, the semantics oracle; ``full``: the shipping default;
  ``push_off``: the ``push_transfers=False`` ablation mirror).
  Every configuration must equal ``sync`` observably, and the
  ``NetStats`` counters must obey the structural invariants each one
  promises (:func:`_check_stats_invariants`).
* :func:`run_multi_seed` (``--clients N``) — *programs-of-programs*: N
  client programs on disjoint and overlapping daemon subsets of one
  shared deployment, interleaved at op granularity by a seed-replayable
  schedule.  Every tenant's observables must be bit-identical to its
  solo run, and the daemons' per-client registries, status buffers and
  build cache are audited.
* :func:`run_seed_with_faults` (``--faults``) — the program under a
  deterministic fault schedule (:func:`fault_plan`: drops, delays,
  truncated bulk streams, link severs, daemon crashes — see
  :mod:`repro.sim.faults`) with the client's retry policy installed
  and the executor's *guarded* policy.  A recoverable schedule must
  leave every observable bit-identical to the fault-free run; an
  unrecoverable one must fail **deterministically** with daemon-loss
  errors only, and never hang (the injector's transfer budget is the
  watchdog).

Any divergence is reported with the generating seed so the exact
program can be replayed.  Runnable outside tier-1 for soak testing::

    PYTHONPATH=src python -m repro.bench.conformance --seeds 200
    PYTHONPATH=src python -m repro.bench.conformance --seed 1234567
    PYTHONPATH=src python -m repro.bench.conformance --faults --seeds 50
    PYTHONPATH=src python -m repro.bench.conformance --clients 4 --seeds 500

(pocl's approach: a reproducible, seed-driven conformance suite, run
unchanged against every target, is what lets an OpenCL runtime refactor
aggressively without regressing semantics.)
"""

from __future__ import annotations

import contextlib
import functools
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.client.resilience import RetryPolicy
from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl.constants import (
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_WRITE,
    CL_MEM_WRITE_ONLY,
    ErrorCode,
)
from repro.ocl.errors import CLError
from repro.ocl.event import Event
from repro.ocl.queue import CommandQueue
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl

#: Elements per conformance buffer (float32), kept small so a tier-1
#: run of many seeds stays inside the time budget.
BUFFER_ELEMS = 64

#: The three configurations every generated program runs under (see the
#: module docstring).  ``sync`` is the oracle.
CONFIGS: Dict[str, Dict[str, object]] = {
    "sync": dict(batch_window=0, push_transfers=False),
    "full": {},
    "push_off": dict(push_transfers=False),
}

#: The pipeline configurations, whose builds go through the program
#: build cache — their daemon-side build counters must agree exactly
#: (the same builds resolve through the same cache whether or not
#: pushes run).
CACHED_CONFIGS = ("full", "push_off")

#: The configurations that must never plan, execute, commit or waste a
#: speculative push (client- and daemon-side counters all zero); every
#: other configuration runs with ``push_transfers=True`` and is held to
#: the push-counter algebra instead.
PUSH_OFF_CONFIGS = ("sync", "push_off")

#: Kernels the generator draws from: one pure producer, one
#: read-modify-write, one two-input combiner (the shapes that exercise
#: coherence plans in every direction).
PROGRAM_SOURCE = """
__kernel void fill(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = f + i;
}
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f + 1.0f;
}
__kernel void sum2(__global float *out, __global const float *a,
                   __global const float *b, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) out[i] = a[i] + b[i];
}
"""

#: Kernel name -> (arg layout tag).  ``fill``/``scale`` take
#: ``(buffer, float, n)``; ``sum2`` takes ``(out, a, b, n)``.
KERNELS = ("fill", "scale", "sum2")

#: Second translation unit the build-path ops draw on.  ``CONF_BIAS``
#: is settable through build options, so the *same source* built under
#: *different options* yields different kernels — a build cache that
#: wrongly keyed on the digest alone (ignoring options) would hand the
#: wrong binary to one of the two builds and diverge from the sync
#: oracle in the buffer bytes themselves.
EXTRA_PROGRAM_SOURCE = """
#ifndef CONF_BIAS
#define CONF_BIAS 0.25f
#endif
__kernel void bias(__global float *x, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] + CONF_BIAS;
}
"""

#: Build options of the ``build_dup`` variant that must NOT share a
#: cache entry with the optionless build of the same source.
EXTRA_BUILD_OPTIONS = "-DCONF_BIAS=1.5f"

#: A translation unit that fails to compile (missing semicolon).  The
#: deterministic compiler produces the identical build log every time,
#: so a negatively-cached replay must be bit-identical to the fresh
#: failure — same error code, same ``clGetProgramBuildInfo`` log.
BROKEN_PROGRAM_SOURCE = """
__kernel void broken(__global float *x, const int n) {
    int i = (int)get_global_id(0)
    if (i < n) x[i] = 0.0f;
}
"""

#: ``(source, options)`` pair each ``build_dup`` variant builds.
#: Variant 0 re-builds the main program (a duplicate key), variants
#: 1 and 2 build the extra source under differing options (distinct
#: keys despite the shared digest).
BUILD_DUP_VARIANTS = (
    (PROGRAM_SOURCE, "", "scale"),
    (EXTRA_PROGRAM_SOURCE, EXTRA_BUILD_OPTIONS, "bias"),
    (EXTRA_PROGRAM_SOURCE, "", "bias"),
)


def build_pairs(spec: Dict[str, object]) -> set:
    """The unique ``(source, options)`` build keys a program spec
    attempts (the setup build plus every build op — failed builds count
    too: negatives are cached and shipped exactly like binaries).
    On the pipeline the size of this set is precisely the number of
    compiles the whole cluster may run."""
    pairs = {(PROGRAM_SOURCE, "")}
    for op in spec["ops"]:
        if op[0] == "build_dup":
            source, options, _kernel = BUILD_DUP_VARIANTS[op[1]]
            pairs.add((source, options))
        elif op[0] == "build_bad":
            pairs.add((BROKEN_PROGRAM_SOURCE, ""))
    return pairs


def build_requests(spec: Dict[str, object]) -> int:
    """The build requests a program spec sends: the setup build plus
    every build op, each to every server of its context."""
    builds = 1 + sum(op[0] in ("build_dup", "build_bad") for op in spec["ops"])
    return builds * spec["n_servers"]


def _audit_reference_builds(tag: str, build: Dict[str, object], requests: int) -> None:
    """The reference path's daemon build counters: every build request
    handled is one compile, with no cache hit and nothing shipped."""
    expected = dict.fromkeys(BUILD_STAT_KEYS, 0)
    expected["programs_built"] = requests
    assert build == expected, (
        f"{tag}: reference-path build counters {build}, expected "
        f"{requests} compiles and nothing else"
    )


def generate_program(
    seed: int, n_ops: Optional[int] = None, n_servers: Optional[int] = None
) -> Dict[str, object]:
    """Generate one random workload DAG from ``seed``.

    Returns a *program spec* — a plain dict of setup parameters plus an
    op list — that :func:`run_program` interprets identically under any
    pipeline configuration (all randomness, including payload data, is
    drawn here, never at run time).

    Generation maintains two safety rules that keep every program
    deterministic and deadlock-free by construction:

    * before any op that synchronises (a read, a ``clFinish``, the
      creation-failure probe), every still-unset user event is set —
      a blocking sync whose closure reaches a command gated on an
      unset user event would otherwise deadlock (in real OpenCL too);
    * the failed creation is released immediately after its error is
      observed, so the poisoned handle never entangles later ops.
    """
    rng = random.Random(seed)
    servers = n_servers if n_servers is not None else rng.choice([2, 3])
    protocol = rng.choice(["msi", "mosi"])
    n_buffers = rng.randint(3, 5)
    # One queue per device, plus 0-2 extra queues on random devices —
    # the multi-queue-per-daemon shape clFlush barriers order.
    extra_queues = [rng.randrange(servers) for _ in range(rng.randint(0, 2))]
    queue_devices = list(range(servers)) + extra_queues
    buffer_inits = [
        [round(rng.uniform(-4.0, 4.0), 3) for _ in range(BUFFER_ELEMS)]
        for _ in range(n_buffers)
    ]
    ops: List[Tuple] = []
    unset_events: List[int] = []
    n_events = 0

    def set_pending_events() -> None:
        while unset_events:
            ops.append(("set_event", unset_events.pop(0)))

    count = n_ops if n_ops is not None else rng.randint(8, 14)
    emitted_bad_create = False
    for _ in range(count):
        kind = rng.choices(
            ["kernel", "write", "read", "read_nb", "read_async", "flush",
             "finish", "user_event", "bad_create", "churn", "build_dup",
             "build_bad", "loop"],
            weights=[5, 2, 2, 1, 2, 2, 1, 2, 1, 2, 1, 1, 2],
        )[0]
        qi = rng.randrange(len(queue_devices))
        if kind == "kernel":
            name = rng.choice(KERNELS)
            if name == "sum2":
                args = (rng.randrange(n_buffers), rng.randrange(n_buffers),
                        rng.randrange(n_buffers))
            else:
                args = (rng.randrange(n_buffers),)
            gate = None
            if n_events and rng.random() < 0.35:
                gate = rng.randrange(n_events)
            scalar = round(rng.uniform(0.5, 2.0), 3)
            ops.append(("kernel", name, qi, args, scalar, gate))
        elif kind == "write":
            blocking = rng.random() < 0.5
            bi = rng.randrange(n_buffers)
            if rng.random() < 0.3:
                offset_elems = rng.randrange(BUFFER_ELEMS // 2)
                length = rng.randint(1, BUFFER_ELEMS - offset_elems)
                # A partial write read-modify-writes the client copy —
                # a synchronizing fetch, so it falls under the
                # unset-user-event rule like a read.
                set_pending_events()
            else:
                offset_elems, length = 0, BUFFER_ELEMS
            data = [round(rng.uniform(-8.0, 8.0), 3) for _ in range(length)]
            ops.append(("write", bi, qi, blocking, offset_elems, data))
        elif kind == "read":
            set_pending_events()
            ops.append(("read", rng.randrange(n_buffers), qi))
        elif kind == "read_nb":
            set_pending_events()
            ops.append(("read_nb", rng.randrange(n_buffers), qi))
        elif kind == "read_async":
            # Deferred non-blocking read: enqueued with an optional
            # event gate, its bytes checked at the event wait, at a
            # queue finish, or only at the end of the program ("later"
            # — the longest deferral window, crossing every subsequent
            # op).  All user events are set first, so the read's
            # dependency chain can always resolve.
            set_pending_events()
            gate = None
            if n_events and rng.random() < 0.3:
                gate = rng.randrange(n_events)
            via = rng.choice(["event", "finish", "later"])
            ops.append(("read_async", rng.randrange(n_buffers), qi, gate, via))
        elif kind == "flush":
            ops.append(("flush", qi))
        elif kind == "finish":
            set_pending_events()
            ops.append(("finish", qi))
        elif kind == "user_event":
            ops.append(("user_event", n_events))
            unset_events.append(n_events)
            n_events += 1
        elif kind == "bad_create" and not emitted_bad_create:
            set_pending_events()
            ops.append(("bad_create",))
            emitted_bad_create = True
        elif kind == "churn":
            # Retain/release churn on short-lived scratch objects: a
            # buffer and/or kernel is created, retained, and released to
            # zero without ever being used — under deferred creations
            # the remote release chases a still-windowed creation, the
            # refcount round trip the windows must order correctly.  No
            # data is touched, so churn is observable only through the
            # NetStats invariants.
            ops.append(("churn", rng.randrange(3), rng.choice(KERNELS)))
        elif kind == "build_dup":
            # An extra program build mid-run (see BUILD_DUP_VARIANTS):
            # variant 0 duplicates the setup build's (source, options)
            # key, variants 1/2 build one source under two option sets.
            # The built kernel is launched on a live buffer, so a cache
            # handing back the wrong binary corrupts observable bytes.
            ops.append((
                "build_dup", rng.randrange(len(BUILD_DUP_VARIANTS)), qi,
                rng.randrange(n_buffers), round(rng.uniform(0.5, 2.0), 3),
            ))
        elif kind == "build_bad":
            # A build that fails deterministically; repeats replay the
            # negative cache entry, which must surface the identical
            # error and build log as the fresh compile.
            ops.append(("build_bad",))
        elif kind == "loop":
            # Iterative producer->consumer loop (the OSEM shape): one
            # queue's kernel rewrites a buffer every round, another
            # queue's kernel consumes it, with a finish between so the
            # producer's completion notification (and any staged push)
            # lands before the consumer plans its transfer.  From round
            # 3 on the planner sees a stable edge and speculative
            # pushes engage — under random schedules, which is exactly
            # what the push-on vs push-off differential must survive.
            # Contains blocking finishes, so pending user events must
            # be set first (the same rule as a read).
            set_pending_events()
            bi = rng.randrange(n_buffers)
            out_bi = (bi + 1 + rng.randrange(n_buffers - 1)) % n_buffers
            qa = rng.randrange(len(queue_devices))
            qb = rng.randrange(len(queue_devices))
            ops.append((
                "loop", bi, out_bi, qa, qb,
                round(rng.uniform(0.5, 2.0), 3), rng.randint(3, 4),
            ))
    set_pending_events()
    return {
        "seed": seed,
        "n_servers": servers,
        "protocol": protocol,
        "queue_devices": queue_devices,
        "buffer_inits": buffer_inits,
        "ops": ops,
    }


#: Daemon-aggregate counters (keys of ``Deployment.daemon_stats()``)
#: reported as an outcome's ``build_stats`` — the structural
#: observables of the content-addressed build cache.
BUILD_STAT_KEYS = (
    "programs_built", "build_cache_hits", "negative_build_hits",
    "binaries_shipped", "build_seconds_saved",
)

#: Daemon-aggregate counters reported as an outcome's ``push_stats`` —
#: the daemon side of the push-counter algebra.
PUSH_STAT_KEYS = ("daemon_pushes", "push_bytes")


def _pick(stats: Dict[str, object], keys: Tuple[str, ...]) -> Dict[str, object]:
    return {key: stats[key] for key in keys}


class ProgramRun:
    """The one program executor: a program spec interpreted against one
    OpenCL API object.

    ``cl`` is an argument because the callers already pass different
    ones (``deployment.api`` for a solo run, ``deployment.apis[ci]`` per
    tenant); nothing below touches anything but its ``cl*`` surface and
    the buffer stubs' coherence state.  Construction is the set-up
    phase (context, queues, program build, initialised buffers),
    :meth:`apply` interprets one op, :meth:`finalize` drains every
    queue, sweeps the pending ``later`` reads, reads every buffer back
    and returns the observable outcome — all under one of two error
    policies:

    * ``guarded=False`` (the configuration differential and the
      multi-client runs): a ``CLError`` propagates, except where the
      failure *is* the op (``bad_create`` / ``build_bad`` record their
      op index in ``errors``);
    * ``guarded=True`` (the fault matrix — what a resilient application
      would observe): every set-up step, op and finalize step is
      individually guarded.  A ``CLError`` is recorded positionally in
      ``errors`` as ``(step, code)`` and interpretation continues; an
      object that could not be created leaves a ``None`` placeholder
      whose dependants fail with the daemon-loss error the creation
      already recorded; an unreadable buffer's ``final`` / directory
      entry is ``("error", code)``.  Deterministic on replay, since
      occurrence-counted faults hit the same step every time.
    """

    def __init__(self, cl, spec: Dict[str, object], guarded: bool = False) -> None:
        self.cl = cl
        self.guarded = guarded
        self.events: Dict[int, object] = {}
        self.reads: Dict[int, bytes] = {}
        self.errors: List[object] = []
        self.build_logs: Dict[int, str] = {}
        #: IDs of the buffers the program released for good.
        self.released: List[int] = []
        #: op index -> ``(array, event)`` of every ``read_async ...
        #: later`` op, checked by :meth:`finalize`.
        self.pending_reads: Dict[int, Tuple] = {}
        devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])
        self.ctx = cl.clCreateContext(devices)
        self.queues = [
            self._create(f"queue:{qi}", cl.clCreateCommandQueue, self.ctx, devices[d])
            for qi, d in enumerate(spec["queue_devices"])
        ]
        self.program = None
        program = self._create(
            "program", cl.clCreateProgramWithSource, self.ctx, PROGRAM_SOURCE
        )
        if program is not None:
            with self._guard("build"):
                cl.clBuildProgram(program)
                self.program = program
        self.buffers = []
        for bi, init in enumerate(spec["buffer_inits"]):
            data = np.array(init, dtype=np.float32)
            self.buffers.append(
                self._create(
                    f"buffer:{bi}", cl.clCreateBuffer, self.ctx,
                    CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, data.nbytes, data,
                )
            )

    @classmethod
    def execute(
        cls, cl, spec: Dict[str, object], guarded: bool = False
    ) -> Dict[str, object]:
        """A solo run: set up, every op in program order, finalize."""
        run = cls(cl, spec, guarded)
        for op_index, op in enumerate(spec["ops"]):
            run.apply(op_index, op)
        return run.finalize()

    @contextlib.contextmanager
    def _guard(self, *step):
        """The error policy around one step: re-raise (unguarded) or
        record ``(*step, code)`` and carry on (guarded)."""
        try:
            yield
        except CLError as exc:
            if not self.guarded:
                raise
            self.errors.append((*step, int(exc.code)))

    def _create(self, step: str, create, *args):
        """One set-up creation under the policy: the object, or the
        ``None`` placeholder its failure leaves behind."""
        with self._guard(step):
            return create(*args)
        return None

    @staticmethod
    def _require(obj):
        """``obj``, or the daemon-loss error of the set-up step that
        left its ``None`` placeholder."""
        if obj is None:
            raise CLError(
                ErrorCode.CL_DEVICE_NOT_AVAILABLE,
                "object never created (daemon lost during setup)",
            )
        return obj

    def apply(self, op_index: int, op: Tuple) -> None:
        """Interpret one program-spec op under the run's error policy."""
        with self._guard(op_index):
            self._interpret(op_index, op)

    def _interpret(self, op_index: int, op: Tuple) -> None:
        """The op interpreter proper.  A gate or set target referencing
        a user event that failed to be created (possible only under an
        unrecoverable fault schedule, where the creating op's error was
        recorded) is skipped — deterministically, since the same
        creation fails on every replay of the same schedule."""
        cl, ctx, program = self.cl, self.ctx, self.program
        queues, buffers, events = self.queues, self.buffers, self.events
        reads, errors, build_logs = self.reads, self.errors, self.build_logs
        require = self._require
        kind = op[0]
        if kind == "kernel":
            _, name, qi, args, scalar, gate = op
            kernel = cl.clCreateKernel(require(program), name)
            if name == "sum2":
                out, a, b = args
                cl.clSetKernelArg(kernel, 0, require(buffers[out]))
                cl.clSetKernelArg(kernel, 1, require(buffers[a]))
                cl.clSetKernelArg(kernel, 2, require(buffers[b]))
                cl.clSetKernelArg(kernel, 3, BUFFER_ELEMS)
            else:
                cl.clSetKernelArg(kernel, 0, require(buffers[args[0]]))
                cl.clSetKernelArg(kernel, 1, np.float32(scalar))
                cl.clSetKernelArg(kernel, 2, BUFFER_ELEMS)
            gate_event = events.get(gate) if gate is not None else None
            wait_for = [gate_event] if gate_event is not None else None
            cl.clEnqueueNDRangeKernel(
                require(queues[qi]), kernel, (BUFFER_ELEMS,), wait_for=wait_for
            )
        elif kind == "write":
            _, bi, qi, blocking, offset_elems, data = op
            cl.clEnqueueWriteBuffer(
                require(queues[qi]),
                require(buffers[bi]),
                blocking,
                offset_elems * 4,
                np.array(data, dtype=np.float32),
            )
        elif kind in ("read", "read_nb"):
            _, bi, qi = op
            data, ev = cl.clEnqueueReadBuffer(
                require(queues[qi]), require(buffers[bi]), blocking=(kind == "read")
            )
            if kind == "read_nb":
                # Deferred fetch: the array fills when the event resolves —
                # recording the bytes before the wait would capture the
                # placeholder, not the read.
                cl.clWaitForEvents([ev])
            reads[op_index] = data.tobytes()
        elif kind == "read_async":
            _, bi, qi, gate, via = op
            gate_event = events.get(gate) if gate is not None else None
            wait_for = [gate_event] if gate_event is not None else None
            data, ev = cl.clEnqueueReadBuffer(
                require(queues[qi]), require(buffers[bi]), blocking=False,
                wait_for=wait_for,
            )
            if via == "later":
                # Longest deferral window: checked by the runner's
                # end-of-program sweep, after the closing finishes.
                self.pending_reads[op_index] = (data, ev)
            else:
                if via == "finish":
                    cl.clFinish(require(queues[qi]))
                else:
                    cl.clWaitForEvents([ev])
                reads[op_index] = data.tobytes()
        elif kind == "flush":
            cl.clFlush(require(queues[op[1]]))
        elif kind == "finish":
            cl.clFinish(require(queues[op[1]]))
        elif kind == "user_event":
            events[op[1]] = cl.clCreateUserEvent(ctx)
        elif kind == "set_event":
            event = events.get(op[1])
            if event is not None:
                cl.clSetUserEventStatus(event, 0)
        elif kind == "churn":
            _, variant, kernel_name = op
            if variant in (0, 2):
                scratch = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * BUFFER_ELEMS)
                cl.clRetainMemObject(scratch)
                cl.clReleaseMemObject(scratch)
                cl.clReleaseMemObject(scratch)
                self.released.append(scratch.id)
            if variant in (1, 2):
                kernel = cl.clCreateKernel(require(program), kernel_name)
                cl.clRetainKernel(kernel)
                cl.clReleaseKernel(kernel)
                cl.clReleaseKernel(kernel)
        elif kind == "loop":
            _, bi, out_bi, qa, qb, scalar, rounds = op
            buf = require(buffers[bi])
            out = require(buffers[out_bi])
            for r in range(rounds):
                producer = cl.clCreateKernel(require(program), "fill")
                cl.clSetKernelArg(producer, 0, buf)
                cl.clSetKernelArg(producer, 1, np.float32(scalar + r))
                cl.clSetKernelArg(producer, 2, BUFFER_ELEMS)
                cl.clEnqueueNDRangeKernel(require(queues[qa]), producer, (BUFFER_ELEMS,))
                # The producer's sync point: its completion notification
                # (carrying any staged push) arrives here, before the
                # consumer's transfer plan is made — the OSEM ordering.
                cl.clFinish(require(queues[qa]))
                consumer = cl.clCreateKernel(require(program), "sum2")
                cl.clSetKernelArg(consumer, 0, out)
                cl.clSetKernelArg(consumer, 1, buf)
                cl.clSetKernelArg(consumer, 2, buf)
                cl.clSetKernelArg(consumer, 3, BUFFER_ELEMS)
                cl.clEnqueueNDRangeKernel(require(queues[qb]), consumer, (BUFFER_ELEMS,))
            cl.clFinish(require(queues[qb]))
        elif kind == "build_dup":
            _, variant, qi, bi, scalar = op
            source, options, kernel_name = BUILD_DUP_VARIANTS[variant]
            extra = cl.clCreateProgramWithSource(ctx, source)
            cl.clBuildProgram(extra, options)
            build_logs[op_index] = cl.clGetProgramBuildInfo(extra, None, "LOG")
            kernel = cl.clCreateKernel(extra, kernel_name)
            cl.clSetKernelArg(kernel, 0, require(buffers[bi]))
            if kernel_name == "scale":
                cl.clSetKernelArg(kernel, 1, np.float32(scalar))
                cl.clSetKernelArg(kernel, 2, BUFFER_ELEMS)
            else:
                cl.clSetKernelArg(kernel, 1, BUFFER_ELEMS)
            cl.clEnqueueNDRangeKernel(require(queues[qi]), kernel, (BUFFER_ELEMS,))
            cl.clReleaseKernel(kernel)
            cl.clReleaseProgram(extra)
        elif kind == "build_bad":
            # The failure is part of the program's expected behaviour, so
            # it is recorded positionally like bad_create (not re-raised):
            # under fault schedules the op must not trip the daemon-loss
            # error audit, and on repeats the negatively-cached replay must
            # produce the identical log captured below.
            bad_program = cl.clCreateProgramWithSource(ctx, BROKEN_PROGRAM_SOURCE)
            try:
                cl.clBuildProgram(bad_program)
            except CLError:
                errors.append(op_index)
            build_logs[op_index] = cl.clGetProgramBuildInfo(bad_program, None, "LOG")
            cl.clReleaseProgram(bad_program)
        elif kind == "bad_create":
            # Mid-run creation failure: conflicting access flags pass
            # the client-side checks but fail daemon-side, so the
            # provisional handle poisons under deferred creations and
            # the error surfaces at the forced sync — while the sync
            # configuration raises at the call itself.  Either way the
            # error is observed at this op and the handle is disposed
            # of (releasing a poisoned handle retires the poison).
            bad = None
            try:
                bad = cl.clCreateBuffer(
                    ctx, CL_MEM_READ_WRITE | CL_MEM_WRITE_ONLY, 4 * BUFFER_ELEMS
                )
            except CLError:
                errors.append(op_index)
            if bad is not None:
                try:
                    cl.clFinish(require(queues[0]))
                except CLError:
                    errors.append(op_index)
                cl.clReleaseMemObject(bad)
                self.released.append(bad.id)
            else:
                # The creation raised eagerly.  Under deferred creations
                # that means a window-overflow flush surfaced one server's
                # failure mid-call — replicas of the doomed creation may
                # still sit in other servers' windows with no handle left
                # to release.  Drain them here so the poison is fully
                # observed at this op: the only deferred failure possible
                # at this point is the same creation's (already recorded
                # once above), so the swallow cannot hide anything else.
                queue = next((q for q in queues if q is not None), None)
                if queue is not None:
                    try:
                        cl.clFinish(queue)
                    except CLError:
                        pass

    def finalize(self) -> Dict[str, object]:
        """Drain every queue, record the ``read_async ... later`` reads,
        read every buffer back and return the observable outcome:
        ``reads`` (op index -> bytes of every mid-run read), ``final``
        (buffer index -> bytes after the full drain), ``directories``
        (buffer index -> coherence state map), ``errors``, ``build_logs``
        (op index -> ``clGetProgramBuildInfo`` log of every build op),
        ``released`` (IDs of the buffers it released) and, for a guarded
        run, ``lost`` (buffers whose only valid copy
        died with a daemon)."""
        cl = self.cl
        for qi, queue in enumerate(self.queues):
            with self._guard("finish", qi):
                cl.clFinish(self._require(queue))
        # The closing finishes already resolved the deferred fetches, so
        # each wait is a no-op confirmation that the event did resolve
        # before the bytes are trusted — or, under a daemon loss, the
        # poisoned read's positional error.
        for op_index in sorted(self.pending_reads):
            data, ev = self.pending_reads.pop(op_index)
            with self._guard(op_index):
                cl.clWaitForEvents([ev])
                self.reads[op_index] = data.tobytes()
        final: Dict[int, object] = {}
        for bi, buffer in enumerate(self.buffers):
            try:
                data, _ev = cl.clEnqueueReadBuffer(
                    self._require(self.queues[0]), self._require(buffer)
                )
                final[bi] = data.tobytes()
            except CLError as exc:
                if not self.guarded:
                    raise
                final[bi] = ("error", int(exc.code))
        never_created = ("error", int(ErrorCode.CL_DEVICE_NOT_AVAILABLE))
        outcome = {
            "reads": self.reads,
            "final": final,
            "directories": {
                bi: never_created if buffer is None else {
                    party: state.value
                    for party, state in buffer.coherence.state.items()
                }
                for bi, buffer in enumerate(self.buffers)
            },
            "errors": self.errors,
            "build_logs": self.build_logs,
            "released": self.released,
        }
        if self.guarded:
            outcome["lost"] = sorted(
                bi for bi, buffer in enumerate(self.buffers)
                if buffer is not None and buffer.coherence.data_lost
            )
        return outcome


def run_program(spec: Dict[str, object], flags: Dict[str, object]) -> Dict[str, object]:
    """Interpret a program spec under one pipeline configuration.

    Returns the observable outcome the differential comparison keys on
    (see :meth:`ProgramRun.finalize`) plus the client's ``NetStats``
    snapshot (``stats``), the daemon-aggregate ``build_stats`` /
    ``push_stats`` counters and the run's ``causality`` violations.
    """
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(spec["n_servers"]),
        coherence_protocol=spec["protocol"],
        **flags,
    )
    probe = CausalityProbe(deployment)
    outcome = ProgramRun.execute(deployment.api, spec)
    _check_released_staging(deployment, [outcome])
    outcome["causality"] = probe.violations()
    daemon_stats = deployment.daemon_stats()
    outcome["objects"] = deployment.census()["objects"]
    outcome["stats"] = deployment.driver.stats.snapshot()
    outcome["build_stats"] = _pick(daemon_stats, BUILD_STAT_KEYS)
    outcome["push_stats"] = _pick(daemon_stats, PUSH_STAT_KEYS)
    return outcome


def _assert_same_observables(
    tag: str, outcome: Dict[str, object], oracle: Dict[str, object], versus: str
) -> None:
    """The differential proper: ``outcome``'s errors, mid-run reads,
    final buffer bytes, directory state and build logs equal
    ``oracle``'s — key by key, so the message names what diverged (and
    ``tag`` carries the seed that replays it)."""
    assert outcome["errors"] == oracle["errors"], (
        f"{tag}: observed errors {outcome['errors']}, {versus} {oracle['errors']}"
    )
    assert outcome["reads"].keys() == oracle["reads"].keys(), (
        f"{tag}: performed different reads than {versus}"
    )
    for op_index, payload in oracle["reads"].items():
        assert outcome["reads"][op_index] == payload, (
            f"{tag}: read at op {op_index} diverged from {versus}"
        )
    assert outcome["final"].keys() == oracle["final"].keys()
    for bi, payload in oracle["final"].items():
        assert outcome["final"][bi] == payload, (
            f"{tag}: final contents of buffer {bi} diverged from {versus}"
        )
    assert outcome["directories"] == oracle["directories"], (
        f"{tag}: directory state diverged: "
        f"{outcome['directories']} vs {versus} {oracle['directories']}"
    )
    # Build logs are part of the oracle: a negatively-cached replay, a
    # cross-daemon shipped binary or a cross-tenant cache hit must
    # reproduce the clGetProgramBuildInfo text of the fresh compile.
    assert outcome["build_logs"] == oracle["build_logs"], (
        f"{tag}: build logs diverged: "
        f"{outcome['build_logs']} vs {versus} {oracle['build_logs']}"
    )


# ----------------------------------------------------------------------
# multi-client programs-of-programs (the multi-tenant testbed)
# ----------------------------------------------------------------------

#: Sub-seed derivation stride: client ``ci`` of a ``(seed, n_clients)``
#: multi-program runs :func:`generate_program` on
#: ``seed * MULTI_SEED_STRIDE + MULTI_SEED_CLIENTS * n_clients + ci``.
#: Pure integer arithmetic on the seed — never a shared RNG across
#: seeds — so replays are bit-identical regardless of ``--start`` /
#: ``--seeds`` paging (the same determinism contract as the
#: single-client harness).
MULTI_SEED_STRIDE = 1_000_003
MULTI_SEED_CLIENTS = 7_919

#: Transfer budget for multi-client runs — the no-hang watchdog: an
#: action-less :class:`FaultPlan` whose ``max_transfers`` budget turns
#: any livelock into a ``WatchdogTimeout`` naming the stuck edge.
MULTI_WATCHDOG_TRANSFERS = 250_000


def generate_multi_program(
    seed: int,
    n_clients: int,
    n_ops: Optional[int] = None,
    n_servers: Optional[int] = None,
) -> Dict[str, object]:
    """Generate a *program-of-programs*: ``n_clients`` independent
    client programs plus the cluster topology and interleave schedule
    they run under.

    Everything is a pure function of ``(seed, n_clients)``:

    * the topology RNG (server count, coherence protocol, per-client
      daemon subsets, interleave order) is seeded with an integer
      derived only from ``(seed, n_clients)``;
    * each client's program comes from :func:`generate_program` on its
      own derived sub-seed (see :data:`MULTI_SEED_STRIDE`), with the
      shared protocol substituted so all drivers run one coherence
      configuration.

    Clients get *daemon subsets* — a sorted sample of the cluster's
    servers, so some pairs are disjoint and some overlap — and the
    schedule interleaves the clients' ops at op granularity while
    preserving each client's own program order (concurrency may reorder
    wire traffic between clients, never within one).
    """
    rng = random.Random(seed * MULTI_SEED_STRIDE + MULTI_SEED_CLIENTS * n_clients)
    total = n_servers if n_servers is not None else rng.choice([2, 3])
    protocol = rng.choice(["msi", "mosi"])
    subsets: List[List[int]] = []
    for _ in range(n_clients):
        k = rng.randint(1, total)
        subsets.append(sorted(rng.sample(range(total), k)))
    clients: List[Dict[str, object]] = []
    for ci in range(n_clients):
        sub_seed = seed * MULTI_SEED_STRIDE + MULTI_SEED_CLIENTS * n_clients + ci + 1
        spec = generate_program(sub_seed, n_ops=n_ops, n_servers=len(subsets[ci]))
        spec["protocol"] = protocol
        clients.append(spec)
    schedule: List[int] = []
    for ci, spec in enumerate(clients):
        schedule.extend([ci] * len(spec["ops"]))
    rng.shuffle(schedule)
    return {
        "seed": seed,
        "n_clients": n_clients,
        "n_servers": total,
        "protocol": protocol,
        "subsets": subsets,
        "clients": clients,
        "schedule": schedule,
    }


def run_multi_program(
    mspec: Dict[str, object], flags: Dict[str, object]
) -> Tuple[List[Dict[str, object]], object]:
    """Interpret a program-of-programs on **one shared deployment**.

    Every client is its own driver/API instance pinned to its daemon
    subset (``client_server_lists``); the interleave schedule dictates
    which client executes its next op at each step.  A transfer-budget
    watchdog (an action-less fault plan) bounds the whole run, so a
    cross-client deadlock fails fast instead of hanging tier-1.

    Returns ``(outcomes, deployment)`` — one outcome dict per client
    (:meth:`ProgramRun.finalize` plus the client's ``stats``) and the
    deployment for daemon-side isolation audits (its ``causality``
    attribute is the run's :class:`CausalityProbe`).
    """
    n_clients = mspec["n_clients"]
    cluster = make_ib_cpu_cluster(mspec["n_servers"], n_clients=n_clients)
    server_names = [server.name for server in cluster.servers]
    deployment = deploy_dopencl(
        cluster,
        coherence_protocol=mspec["protocol"],
        n_clients=n_clients,
        client_server_lists=[
            [server_names[i] for i in subset] for subset in mspec["subsets"]
        ],
        **flags,
    )
    install_fault_injector(
        cluster.network, FaultPlan(actions=[], max_transfers=MULTI_WATCHDOG_TRANSFERS)
    )
    deployment.causality = CausalityProbe(deployment)
    runs = [
        ProgramRun(deployment.apis[ci], mspec["clients"][ci])
        for ci in range(n_clients)
    ]
    pending = [iter(enumerate(spec["ops"])) for spec in mspec["clients"]]
    for ci in mspec["schedule"]:
        runs[ci].apply(*next(pending[ci]))
    outcomes = []
    for run, driver in zip(runs, deployment.drivers):
        # A tenant's counters are snapshotted *before* its closing drain
        # and readback (run_program snapshots after): the summaries'
        # aggregate round trips and the golden digests pin this.
        stats = driver.stats.snapshot()
        outcomes.append({**run.finalize(), "stats": stats})
    _check_released_staging(deployment, outcomes)
    return outcomes, deployment


def run_client_solo(
    mspec: Dict[str, object], ci: int, flags: Dict[str, object]
) -> Dict[str, object]:
    """The differential oracle for one tenant: client ``ci``'s program
    run *alone* — same total cluster (so daemon names and hence
    directory parties are identical), same daemon subset, ops in
    program order — on a fresh deployment."""
    spec = mspec["clients"][ci]
    solo = {
        "seed": mspec["seed"],
        "n_clients": 1,
        "n_servers": mspec["n_servers"],
        "protocol": mspec["protocol"],
        "subsets": [mspec["subsets"][ci]],
        "clients": [spec],
        "schedule": [0] * len(spec["ops"]),
    }
    outcomes, _deployment = run_multi_program(solo, flags)
    return outcomes[0]


def _audit_isolation(tag: str, mspec: Dict[str, object], deployment) -> None:
    """Daemon-side per-client isolation audits after a multi run:
    registry namespaces match exactly the clients that own objects
    there, no status-before-create drop or admission event fired, and
    every send window fully drained."""
    client_names = {driver.gcf.name for driver in deployment.drivers}
    for daemon in deployment.daemons:
        namespaces = set(daemon.registry.client_names())
        assert namespaces <= client_names, (
            f"{tag}: daemon {daemon.name} registry holds foreign namespaces "
            f"{namespaces - client_names}"
        )
        stats = daemon.gcf.stats
        assert stats.dropped_event_statuses == 0, (
            f"{tag}: daemon {daemon.name} dropped event statuses under a "
            f"workload that never fills the buffer"
        )
        assert stats.refused_connections == 0 and stats.quota_rejections == 0, (
            f"{tag}: daemon {daemon.name} admission control fired without a policy"
        )
    for driver in deployment.drivers:
        for conn in driver.connections():
            assert len(conn.window) == 0, (
                f"{tag}: client {driver.gcf.name} left commands windowed for "
                f"{conn.name} after the final drain"
            )


def _audit_multi_build_cache(
    tag: str, mspec: Dict[str, object], deployment, flags: Dict[str, object]
) -> None:
    """Shared-deployment build-cache audit: on the pipeline, N tenants'
    builds compile exactly once per unique ``(source, options)`` key
    *cluster-wide* (cross-tenant and cross-daemon sharing both engage);
    on the reference path every tenant's build request is a compile of
    its own (:func:`_audit_reference_builds`)."""
    stats = _pick(deployment.daemon_stats(), BUILD_STAT_KEYS)
    if flags.get("batch_window") == 0:
        requests = sum(build_requests(spec) for spec in mspec["clients"])
        _audit_reference_builds(tag, stats, requests)
        return
    unique = len(set().union(*(build_pairs(spec) for spec in mspec["clients"])))
    assert stats["programs_built"] == unique, (
        f"{tag}: {stats['programs_built']} compiles for {unique} unique "
        f"(source, options) keys across all tenants"
    )


def run_multi_seed(
    seed: int,
    n_clients: int,
    n_ops: Optional[int] = None,
    n_servers: Optional[int] = None,
    config: str = "full",
) -> Dict[str, object]:
    """Run one multi-client seed and assert the tenant-isolation
    differential: every client's observables (mid-run reads, final
    buffer bytes, coherence-directory state, observed errors) must be
    **bit-identical** to its solo run — concurrency may reorder wire
    traffic between clients but never change any client's semantics.

    Every assertion message carries the seed and client count, so a
    failure replays exactly with ``python -m repro.bench.conformance
    --seed <seed> --clients <n>``."""
    mspec = generate_multi_program(seed, n_clients, n_ops=n_ops, n_servers=n_servers)
    flags = dict(CONFIGS[config])
    outcomes, deployment = run_multi_program(mspec, flags)
    tag = f"seed {seed} clients {n_clients}"
    _audit_isolation(tag, mspec, deployment)
    _audit_multi_build_cache(tag, mspec, deployment, flags)
    _check_residency(tag, deployment.census()["objects"])
    _check_causality(tag, deployment.causality.violations())
    for ci in range(n_clients):
        _assert_same_observables(
            f"{tag} client {ci}", outcomes[ci], run_client_solo(mspec, ci, flags),
            "the solo run",
        )
    return {
        "seed": seed,
        "n_clients": n_clients,
        "n_servers": mspec["n_servers"],
        "protocol": mspec["protocol"],
        "n_ops": sum(len(spec["ops"]) for spec in mspec["clients"]),
        "round_trips": sum(o["stats"]["round_trips"] for o in outcomes),
    }


# ----------------------------------------------------------------------
# conformance under fire (fault schedules)
# ----------------------------------------------------------------------

#: Transfer budget for faulted runs — the no-deadlock watchdog: a retry
#: loop that stops converging exhausts this long before tier-1's time
#: budget and fails with ``WatchdogTimeout`` naming the livelocked edge.
FAULT_WATCHDOG_TRANSFERS = 100_000

#: Schedules whose faults the retry policy must absorb *exactly*: the
#: faulted run has to be bit-identical to the fault-free run.
RECOVERABLE_SCHEDULES = (
    "drop-batch", "drop-reply", "delay-batch", "truncate-bulk", "sever-heal",
    "drop-request",
)

#: Schedules that destroy state for good: runs must fail with the same
#: deterministic ``CL_DEVICE_NOT_AVAILABLE``-class errors every time.
UNRECOVERABLE_SCHEDULES = ("crash", "sever-permanent")

#: Error codes an unrecoverable schedule may surface (daemon-loss class).
DAEMON_LOSS_CODES = frozenset(
    {int(ErrorCode.CL_DEVICE_NOT_AVAILABLE), int(ErrorCode.CL_CONNECTION_ERROR_WWU)}
)


def fault_plan(schedule: str) -> FaultPlan:
    """Build a fresh :class:`FaultPlan` for a named schedule.

    Every schedule targets steady-state traffic — batches, bulk streams,
    the s2s mesh, the request leg of the pipeline's one synchronous
    coherence request (``BufferPeerTransferBatch``) — by tag
    (occurrence-counted, so the same program faults the same message
    every run) and carries the :data:`FAULT_WATCHDOG_TRANSFERS` budget.
    """
    actions = {
        "drop-batch": [FaultAction("drop", nth=2, tag="CommandBatch")],
        "drop-reply": [FaultAction("drop", nth=1, tag="CommandBatchResponse")],
        "delay-batch": [FaultAction("delay", nth=1, tag="CommandBatch", delay=0.02)],
        "truncate-bulk": [FaultAction("truncate", nth=1, tag_prefix="bulk:")],
        "sever-heal": [
            FaultAction("sever", nth=3, tag="CommandBatch", heal_after=1)
        ],
        "crash": [FaultAction("crash", nth=2, tag="CommandBatch")],
        "sever-permanent": [
            FaultAction("sever", nth=2, tag="CommandBatch", heal_after=None)
        ],
        "drop-request": [FaultAction("drop", nth=1, tag="BufferPeerTransferBatch")],
        "sever-push": [FaultAction("sever", nth=1, tag="s2s-push", heal_after=1)],
        "sever-fetch": [
            FaultAction(
                "sever", nth=1, tag="bulk:CoalescedBufferDownload", heal_after=1
            )
        ],
        "drop-section": [FaultAction("drop", nth=1, tag="bulk:BufferDataUpload")],
    }[schedule]
    return FaultPlan(actions=actions, max_transfers=FAULT_WATCHDOG_TRANSFERS)


def push_fault_spec(seed: int) -> Dict[str, object]:
    """The program the ``sever-push`` schedule replays: the generated
    program for ``seed`` forced onto MOSI with a deterministic
    cross-daemon producer->consumer loop appended, so the s2s push path
    engages regardless of what the seed happened to draw.

    The contract: cutting the s2s mesh under a speculative push (at the
    first ``s2s-push`` transfer, healed one blocked transfer later)
    must *degrade to demand fetch* — the owning daemon abandons the
    push, the consumer pays the ordinary client-mediated transfer, and
    every observable stays bit-identical to the fault-free run."""
    spec = generate_program(seed)
    spec["protocol"] = "mosi"
    spec["ops"] = list(spec["ops"]) + [("loop", 0, 1, 0, 1, 1.25, 4)]
    return spec


def deferred_read_fault_spec(seed: int) -> Dict[str, object]:
    """The program the ``sever-fetch`` schedule replays: a fixed shape
    (kernel -> deferred read, twice, on two daemons) whose scalars and
    initial data are drawn from ``seed``.  The buffers are created from
    host pointers, so the kernels only ever *upload* — the first bulk
    download on the wire is guaranteed to be the deferred fetch the
    schedule severs (healed one blocked transfer later).

    The contract: the retry policy replays the fetch over the healed
    link, the waited event still resolves, and every observable byte
    stays identical to the fault-free run."""
    rng = random.Random(seed)
    inits = [
        [round(rng.uniform(-4.0, 4.0), 3) for _ in range(BUFFER_ELEMS)]
        for _ in range(2)
    ]
    s0 = round(rng.uniform(0.5, 2.0), 3)
    s1 = round(rng.uniform(0.5, 2.0), 3)
    return {
        "seed": seed,
        "n_servers": 2,
        "protocol": "msi",
        "queue_devices": [0, 1],
        "buffer_inits": inits,
        "ops": [
            ("kernel", "fill", 0, (0,), s0, None),
            ("read_async", 0, 0, None, "event"),
            ("kernel", "scale", 1, (1,), s1, None),
            ("read_async", 1, 1, None, "finish"),
        ],
    }


def write_fault_spec(seed: int) -> Dict[str, object]:
    """The program the ``drop-section`` schedule replays: the generated
    program for ``seed`` with a non-blocking whole-buffer write appended
    (its bytes drawn from ``seed``), so at least one host write streams
    its payload as a section behind a batch.

    The contract: dropping the first write section's leg fails the
    batch that carries it before the daemon dispatches anything, the
    retry policy replays the batch and re-streams the section, the
    write applies exactly once, and every observable byte stays
    identical to the fault-free run."""
    spec = generate_program(seed)
    rng = random.Random(seed)
    data = [round(rng.uniform(-8.0, 8.0), 3) for _ in range(BUFFER_ELEMS)]
    spec["ops"] = list(spec["ops"]) + [("write", 0, 0, False, 0, data)]
    return spec


def peer_transfer_fault_spec(seed: int) -> Dict[str, object]:
    """The program the ``drop-request`` schedule replays: the generated
    program for ``seed`` on MOSI, with two producers on daemon 0 and a
    consumer of both on daemon 1 appended, so a two-section
    ``BufferPeerTransferBatch`` always goes out.  Dropping its request
    leg costs a timeout; the replay-safe retry re-sends it, and every
    observable byte stays identical to the fault-free run."""
    spec = generate_program(seed)
    spec["protocol"] = "mosi"
    spec["ops"] = list(spec["ops"]) + [
        ("kernel", "fill", 0, (0,), 1.5, None),
        ("kernel", "fill", 0, (1,), 0.75, None),
        ("kernel", "sum2", 1, (2, 0, 1), 1.0, None),
        ("read", 2, 1),
    ]
    return spec


#: Schedules that replay a *forced* program instead of the seed's
#: generated one: a random program is not guaranteed to emit any
#: ``s2s-push`` traffic (MSI protocol, or no producer->consumer loop
#: drawn), may resolve every deferred read off a staged push (no
#: demand fetch at all), may draw no host write (no section on the
#: wire) and no MOSI hop (no peer-transfer request).  ``schedule ->
#: (spec builder, witness)``: the cell is vacuous — and fails — unless
#: the fault-free baseline moved the witness ``NetStats`` counter and
#: the schedule fired.  Only ``drop-request`` also runs in the generic
#: matrix (it is recoverable), on its forced program.
FORCED_PROGRAMS = {
    "sever-push": (push_fault_spec, "push_commits"),
    "sever-fetch": (deferred_read_fault_spec, "deferred_reads"),
    "drop-section": (write_fault_spec, "bulk_sends"),
    "drop-request": (peer_transfer_fault_spec, "coalesced_peer_transfers"),
}

#: Every named schedule, in ``--faults`` matrix order.
ALL_SCHEDULES = tuple(
    dict.fromkeys(RECOVERABLE_SCHEDULES + UNRECOVERABLE_SCHEDULES + tuple(FORCED_PROGRAMS))
)


def run_program_resilient(
    spec: Dict[str, object],
    flags: Dict[str, object],
    plan: Optional[FaultPlan] = None,
) -> Dict[str, object]:
    """Interpret a program spec with the retry policy installed and (when
    ``plan`` is given) a fault injector armed, under the guarded policy
    of :class:`ProgramRun`.

    The injector is installed *after* deployment, so connect/discovery
    traffic is never faulted — the schedules target the steady state,
    which is where the resilience machinery lives.  Each daemon's
    :meth:`~repro.core.daemon.daemon.Daemon.crash` is registered as its
    host's crash hook.  Returns the guarded outcome plus the client's
    ``stats``, the ``injector`` snapshot (``None`` without a plan) and
    the run's ``causality`` violations.
    """
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(spec["n_servers"]),
        coherence_protocol=spec["protocol"],
        retry_policy=RetryPolicy(),
        **flags,
    )
    injector = None
    if plan is not None:
        injector = install_fault_injector(deployment.cluster.network, plan)
        for daemon in deployment.daemons:
            injector.register_crash_hook(daemon.host.name, daemon.crash)
    probe = CausalityProbe(deployment)
    outcome = ProgramRun.execute(deployment.api, spec, guarded=True)
    _check_released_staging(deployment, [outcome])
    outcome["causality"] = probe.violations()
    outcome["objects"] = deployment.census()["objects"]
    outcome["stats"] = deployment.driver.stats.snapshot()
    outcome["injector"] = injector.snapshot() if injector is not None else None
    return outcome


def _check_residency(tag: str, objects: Dict[str, List[int]]) -> None:
    """The pipeline's residency invariant over the daemons' object
    census: user-event replicas created <= replicas a waiting command
    named (the cross-server waits), buffer copies created <= (buffer,
    server) pairs a command used.  A crashed daemon's namespace counts
    as dropped (its census died with its registry)."""
    for kind in ("UserEvent", "Buffer"):
        created, named = objects.get(kind, (0, 0))
        assert created <= named, (
            f"{tag}: {created} {kind} copies created but commands named {named}"
        )


class CausalityProbe:
    """Records, while a deployment runs, what the causality rules of
    :meth:`violations` need: every event a daemon registered, and every
    coherence read of a copy — a download section or a server-to-server
    hop — with the time the copy's last write landed
    (``Buffer.write_landed``).  It wraps the deployment's own objects
    (each daemon's registry and hop handler, its queues, the network)."""

    def __init__(self, deployment) -> None:
        self.deployment = deployment
        self.events: Dict[Tuple[str, str, int], Event] = {}
        self.reads: List[Tuple[str, object, Optional[float]]] = []
        self._hop: Optional[List[Optional[float]]] = None
        network = deployment.cluster.network
        transfer = network.transfer

        def network_transfer(src, dst, ready, nbytes, tag=None):
            if tag == "s2s-buffer" and self._hop is not None:
                self.reads.extend((f"{src.name} hop", ready, at) for at in self._hop)
            return transfer(src, dst, ready, nbytes, tag)

        network.transfer = network_transfer
        for daemon in deployment.daemons:
            self._watch(daemon)

    def _watch(self, daemon) -> None:
        registry, handlers = daemon.registry, daemon.gcf._request_handlers
        put, hop = registry.put, handlers[P.BufferPeerTransferBatch]

        def registry_put(client, obj_id, obj):
            if isinstance(obj, Event):
                self.events[(daemon.host.name, client, obj_id)] = obj
            elif isinstance(obj, CommandQueue):
                read = obj.enqueue_read_buffer

                def enqueue_read_buffer(buffer, *args, **kwargs):
                    landed = buffer.write_landed()
                    data, event = read(buffer, *args, **kwargs)
                    self.reads.append((f"{daemon.name} download", event, landed))
                    return data, event

                obj.enqueue_read_buffer = enqueue_read_buffer
            return put(client, obj_id, obj)

        def peer_transfer(msg, t, sender, *section):
            copies = [registry.peek(sender.name, i) for i in msg.buffer_ids]
            self._hop = [c.write_landed() for c in copies if c is not None]
            try:
                return hop(msg, t, sender, *section)
            finally:
                self._hop = None

        registry.put = registry_put
        handlers[P.BufferPeerTransferBatch] = peer_transfer

    def violations(self) -> List[str]:
        """Every breach of the two causality rules:

        1. A command a daemon ran starts no earlier than the end of each
           event in its client-side ``depends_on`` (wait list plus
           in-order predecessor), read on that event's owner.
        2. A coherence read of a copy starts no earlier than the copy's
           last write landed.  A read made while that write was still
           gated on an event is not judged: the transfer cannot wait for
           it (it blocks the application call that would set the event).
        """
        found = []
        for driver in self.deployment.drivers:
            client = driver.gcf.name
            for stub in list(driver._events.values()):
                ran = self.events.get((stub.owner_server, client, stub.id))
                for dep_id in stub.depends_on if ran is not None and ran.resolved else ():
                    dep = driver._events.get(dep_id)
                    done = dep and self.events.get((dep.owner_server, client, dep_id))
                    if done is not None and done.resolved and ran.start < done.end - 1e-12:
                        found.append(f"event {stub.id} starts at {ran.start!r}, before "
                                     f"its dependency {dep_id} ends at {done.end!r}")
        for what, read, landed in self.reads:
            start = getattr(read, "start", read)
            if None not in (landed, start) and start < landed - 1e-12:
                found.append(
                    f"{what} reads at {start!r}, before its copy's write lands at {landed!r}"
                )
        return found


def _check_released_staging(deployment, outcomes: List[Dict[str, object]]) -> None:
    """No daemon keeps a staged push for a buffer its client's program
    released: the release drops every staged row of the buffer."""
    for driver, outcome in zip(deployment.drivers, outcomes):
        for daemon in deployment.daemons:
            rows = daemon.staged_pushes(driver.gcf.name, set(outcome["released"]))
            assert not rows, f"{daemon.name}: {rows} staged pushes outlive released buffers"


def _check_causality(tag: str, violations: List[str]) -> None:
    """The causality invariant (:meth:`CausalityProbe.violations`)."""
    assert not violations, f"{tag}: causality broken: {violations[:3]}"


def _semantics(outcome: Dict[str, object]) -> Dict[str, object]:
    """The observable slice of a faulted outcome (everything but the
    counters, which legitimately differ between runs with and without
    faults)."""
    return {
        key: outcome[key]
        for key in ("reads", "final", "directories", "errors", "build_logs", "lost")
    }


def _check_resilience_stats(tag: str, stats: Dict[str, int]) -> None:
    """Structural invariants of the resilience counters (audited on every
    faulted run; the seed is in ``tag`` so violations replay)."""
    assert stats["retries"] <= stats["timeouts"], (
        f"{tag}: more retries than timeouts ({stats['retries']} > {stats['timeouts']})"
    )
    assert stats["deduped_batches"] <= stats["replayed_batches"], (
        f"{tag}: daemons deduped more batches than the client replayed "
        f"({stats['deduped_batches']} > {stats['replayed_batches']})"
    )
    for key in ("timeouts", "retries", "replayed_batches", "deduped_batches",
                "evicted_replicas", "dead_daemons", "lost_notifications"):
        assert stats[key] >= 0, f"{tag}: negative counter {key}"


def run_seed_with_faults(seed: int, schedule: str) -> Dict[str, object]:
    """Run one (seed, schedule) fault cell and assert its contract
    (:func:`run_faulted_program`): the program is the seed's generated
    one, or the schedule's row of :data:`FORCED_PROGRAMS`, whose
    vacuity check is asserted first."""
    build_spec, witness = FORCED_PROGRAMS.get(schedule, (generate_program, None))
    return run_faulted_program(build_spec(seed), schedule, witness)


def run_faulted_program(
    spec: Dict[str, object], schedule: str, witness: Optional[str] = None
) -> Dict[str, object]:
    """Run ``spec`` fault-free and under ``schedule`` on the ``full``
    configuration and assert the schedule's contract.

    Unrecoverable schedule: the faulted run must reproduce *itself*
    exactly on a second run, and every error it surfaces must be
    daemon-loss class.  Any other schedule is recoverable: the faulted
    run must be bit-identical (reads, final contents, directory state,
    observed errors) to the fault-free run of the same configuration
    and kill no daemon.  Either way the resilience counters are
    audited and the watchdog bounds the run.  With a ``witness``
    ``NetStats`` counter, the fault-free run must move it and the
    schedule must fire.
    """
    seed = spec["seed"]
    flags = dict(CONFIGS["full"])
    tag = f"seed {seed} schedule {schedule}"
    baseline = run_program_resilient(spec, flags, None)
    faulted = run_program_resilient(spec, flags, fault_plan(schedule))
    fired = faulted["injector"]["fired_actions"]
    _check_resilience_stats(tag, faulted["stats"])
    for outcome in (baseline, faulted):
        _check_residency(tag, outcome["objects"])
        _check_causality(tag, outcome["causality"])
    if witness is not None:
        assert baseline["stats"][witness] > 0, (
            f"{tag}: fault-free run never moved {witness} — the schedule "
            f"would be vacuous"
        )
        assert fired > 0, f"{tag}: the {schedule} schedule never fired"
    if schedule in UNRECOVERABLE_SCHEDULES:
        again = run_program_resilient(spec, flags, fault_plan(schedule))
        assert _semantics(faulted) == _semantics(again), (
            f"{tag}: unrecoverable fault is not deterministic: "
            f"{_semantics(faulted)} vs {_semantics(again)}"
        )
        # Guarded-policy records — ``(step, code)`` errors and
        # ``("error", code)`` readbacks — all end in their code.
        for entry in (*faulted["errors"], *faulted["final"].values()):
            if isinstance(entry, tuple):
                assert entry[-1] in DAEMON_LOSS_CODES, (
                    f"{tag}: error {entry} is not daemon-loss class"
                )
    else:
        assert _semantics(faulted) == _semantics(baseline), (
            f"{tag}: recoverable fault changed observable behaviour: "
            f"{_semantics(faulted)} vs {_semantics(baseline)}"
        )
        assert faulted["stats"]["dead_daemons"] == 0, (
            f"{tag}: recoverable schedule killed a daemon"
        )
    return {
        "seed": seed,
        "schedule": schedule,
        "fired": fired,
        "errors": len(faulted["errors"]),
        "baseline_errors": len(baseline["errors"]),
        "retries": faulted["stats"]["retries"],
        "dead_daemons": faulted["stats"]["dead_daemons"],
        "baseline_stats": baseline["stats"],
        "faulted_stats": faulted["stats"],
    }


def _check_stats_invariants(
    seed: int, spec: Dict[str, object], outcomes: Dict[str, Dict[str, object]]
) -> None:
    """The per-configuration ``NetStats`` structural invariants (seed in
    every message so a violation is replayable)."""
    tag = f"seed {seed}"
    for name in CACHED_CONFIGS:
        _check_residency(f"{tag}: {name}", outcomes[name]["objects"])
        _check_causality(f"{tag}: {name}", outcomes[name]["causality"])
    sync = outcomes["sync"]["stats"]
    assert sync["batches"] == 0, f"{tag}: sync config dispatched batches"
    assert sync["flush_barriers"] == 0, f"{tag}: sync config recorded barriers"
    assert sync["prefix_flushes"] == 0, f"{tag}: sync config prefix-flushed"
    assert sync["relays_deferred"] == 0, f"{tag}: sync config deferred relays"
    for key in ("coalesced_reads", "coalesced_downloads", "coalesced_peer_transfers"):
        assert sync[key] == 0, f"{tag}: sync config has {key} != 0"
    # Build structural invariants.  The reference path compiles every
    # build request it handles and never touches a build cache on
    # either side of the wire; on the pipeline the daemon aggregates
    # are an exact function of the program's build keys, independent of
    # the push switch.
    for key in ("build_cache_hits", "negative_build_hits"):
        assert sync[key] == 0, f"{tag}: sync config moved client build counter {key}"
    requests = build_requests(spec)
    _audit_reference_builds(tag, outcomes["sync"]["build_stats"], requests)
    # Push-transfer structural invariants.  A push-off configuration
    # never plans, executes, commits or wastes a push on either side of
    # the wire; a push-on configuration obeys the algebra
    # ``push_commits + wasted_pushes <= daemon_pushes <=
    # speculative_pushes`` (a discarded push is only ever *counted*,
    # never observed — the byte/directory equality above is the proof).
    for name in PUSH_OFF_CONFIGS:
        stats = outcomes[name]["stats"]
        for key in ("speculative_pushes", "push_commits", "wasted_pushes"):
            assert stats[key] == 0, (
                f"{tag}: {name} config moved push counter {key}={stats[key]}"
            )
        for key, value in outcomes[name]["push_stats"].items():
            assert value == 0, (
                f"{tag}: {name} config moved daemon push counter {key}={value}"
            )
    for name in outcomes:
        if name in PUSH_OFF_CONFIGS:
            continue
        stats = outcomes[name]["stats"]
        executed = outcomes[name]["push_stats"]["daemon_pushes"]
        assert (
            stats["push_commits"] + stats["wasted_pushes"]
            <= executed
            <= stats["speculative_pushes"]
        ), (
            f"{tag}: {name} config broke the push algebra: "
            f"commits={stats['push_commits']} wasted={stats['wasted_pushes']} "
            f"executed={executed} hints={stats['speculative_pushes']}"
        )
    unique = len(build_pairs(spec))
    servers = spec["n_servers"]
    reference = outcomes[CACHED_CONFIGS[0]]["build_stats"]
    for name in CACHED_CONFIGS:
        build = outcomes[name]["build_stats"]
        assert build == reference, (
            f"{tag}: cached configs disagree on build counters: "
            f"{name}={build} vs {CACHED_CONFIGS[0]}={reference}"
        )
        # One compile per unique (source, options) key cluster-wide;
        # the compiling daemon ships every outcome (binaries and
        # negatives alike) to each of its siblings, and every other
        # resolution is a hit of one kind or the other.
        assert build["programs_built"] == unique, (
            f"{tag}: {name} compiled {build['programs_built']} times for "
            f"{unique} unique build keys"
        )
        assert build["binaries_shipped"] == unique * (servers - 1), (
            f"{tag}: {name} shipped {build['binaries_shipped']} entries, "
            f"expected {unique} keys x {servers - 1} siblings"
        )
        hits = build["build_cache_hits"] + build["negative_build_hits"]
        assert build["programs_built"] + hits == requests, (
            f"{tag}: {name} resolved {build['programs_built']} + {hits} "
            f"builds, expected {requests}"
        )
    # The pipeline is a communication optimisation: no deferred
    # configuration may ever spend as much as the synchronous oracle.
    rt = {name: outcomes[name]["stats"]["round_trips"] for name in outcomes}
    for name in CACHED_CONFIGS:
        assert rt[name] < rt["sync"], (
            f"{tag}: {name} config did not beat the synchronous oracle ({rt})"
        )


def run_seed(
    seed: int, n_ops: Optional[int] = None, n_servers: Optional[int] = None
) -> Dict[str, object]:
    """Generate the program for ``seed``, run it under every
    configuration and assert the differential properties; returns a
    summary (op count, per-config round trips) for reporting.

    Every assertion message carries the seed, so a failing run is
    reproduced exactly with ``python -m repro.bench.conformance --seed
    <seed>`` (or by parametrising the tier-1 test with it)."""
    spec = generate_program(seed, n_ops=n_ops, n_servers=n_servers)
    outcomes = {name: run_program(spec, flags) for name, flags in CONFIGS.items()}
    for name, outcome in outcomes.items():
        _assert_same_observables(f"seed {seed}: {name}", outcome, outcomes["sync"], "sync")
    _check_stats_invariants(seed, spec, outcomes)
    return {
        "seed": seed,
        "n_servers": spec["n_servers"],
        "protocol": spec["protocol"],
        "n_ops": len(spec["ops"]),
        "round_trips": {
            name: outcomes[name]["stats"]["round_trips"] for name in CONFIGS
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.bench.conformance``)."""
    import argparse

    parser = argparse.ArgumentParser(
        description="randomized differential conformance harness for the "
        "dOpenCL forwarding pipeline"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="run exactly this seed (reproduce a failure)",
    )
    parser.add_argument(
        "--seeds", type=int, default=20,
        help="number of consecutive seeds to run when --seed is absent",
    )
    parser.add_argument(
        "--start", type=int, default=0, help="first seed of the soak range"
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="override the per-program op count"
    )
    parser.add_argument(
        "--servers", type=int, default=None, help="override the server count"
    )
    parser.add_argument(
        "--clients", type=int, default=1,
        help="run each seed as a multi-client program-of-programs with "
        "this many tenants (differential: every client vs its solo run)",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="run the fault-schedule matrix (every schedule per seed) "
        "instead of the configuration differential",
    )
    parser.add_argument(
        "--schedule", default=None,
        choices=ALL_SCHEDULES,
        help="with --faults: run only this schedule",
    )
    args = parser.parse_args(argv)
    seeds = [args.seed] if args.seed is not None else list(
        range(args.start, args.start + args.seeds)
    )
    # A mode is its ``(label, thunk)`` cells, the one-line template its
    # summaries print through and a noun for the verdict; the soak loop
    # below is the same for all three.
    if args.faults:
        schedules = (args.schedule,) if args.schedule else ALL_SCHEDULES
        cells = [
            (f"seed {seed} schedule {name}",
             functools.partial(run_seed_with_faults, seed, name))
            for seed in seeds for name in schedules
        ]
        template = "fired={fired} retries={retries} errors={errors} dead={dead_daemons}"
        noun = "fault combinations"
    elif args.clients > 1:
        cells = [
            (f"seed {seed} clients {args.clients}",
             functools.partial(run_multi_seed, seed, args.clients,
                               n_ops=args.ops, n_servers=args.servers))
            for seed in seeds
        ]
        template = (
            "{protocol}, {n_servers} servers, {n_ops} ops, "
            "{round_trips} aggregate round trips"
        )
        noun = f"{args.clients}-client seeds"
    else:
        cells = [
            (f"seed {seed}",
             functools.partial(run_seed, seed, n_ops=args.ops, n_servers=args.servers))
            for seed in seeds
        ]
        template = "{protocol}, {n_servers} servers, {n_ops} ops; round trips " + (
            " ".join(f"{name}={{round_trips[{name}]}}" for name in CONFIGS)
        )
        noun = "seeds"
    failures = 0
    for label, run_cell in cells:
        try:
            summary = run_cell()
        except AssertionError as exc:
            failures += 1
            print(f"{label}: FAIL — {exc}")
        else:
            print(f"{label}: ok ({template.format_map(summary)})")
    if failures:
        print(f"{failures}/{len(cells)} {noun} diverged")
        return 1
    print(f"all {len(cells)} {noun} conform")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
