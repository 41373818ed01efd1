"""``clcdump``: what did the kernel compiler decide, and what does it cost?

    python -m repro.tools.clcdump FILE.cl [--kernel NAME] [--run N]
    python -m repro.tools.clcdump --app mandelbrot|osem [--run N]

Prints the Python module :mod:`repro.clc.codegen` generates for an
OpenCL C translation unit.  The module carries one comment per
compiler decision (``# merge elided: zr_16 dead after loop 2``,
``# loop 2: masked (barrier)``, ``# block: 8 ops``, ``# mask restored:
if 3 parks nobody for good``, ``# uniform: s_42``), so the liveness,
compaction, block, mask and uniformity verdicts can be read without
reading the code generator.

With ``--run N`` one ``N``-work-item launch of one kernel is executed on
both backends and the report adds, per backend, ``ops`` and
``work_items`` (:class:`~repro.clc.runtime.ExecutionStats`), and for the
vector backend the ``vecrt.merge`` calls executed, the lane compactions
fired, the blocks charged (``_ctx.ops +=`` lines executed) and the
Python-level calls the launch made (:func:`launch_counts`: what the
generated code costs the host, whatever the lane count), then whether
every buffer ended up identical.  The
interpreter runs one work-item at a time, so keep ``N`` modest for
kernels with long loops.  ``--app`` supplies real arguments (a row of
the stream bench's widest frame; one seeded OSEM event set); a kernel from a
file gets zero-filled ``N``-element buffers, ``N`` for every integer
argument and ``1.0`` for every float.

This is the two-minute check for a change to ``repro.clc``: the
decisions it prints are what the change altered, and ``ops`` /
``work_items`` are what it must not (``tests/clc/test_op_accounting.py``
holds the golden table).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.clc import CLCRuntimeError, LocalMemory, compile_program, execute_kernel, vecrt
from repro.clc.driver import CompiledProgram
from repro.clc.types import PointerType

APPS = ("mandelbrot", "osem")


def _app_source(app: str) -> Tuple[str, str]:
    """``(source, default kernel)`` of a bundled application."""
    if app == "mandelbrot":
        from repro.apps.mandelbrot import MANDELBROT_KERNEL

        return MANDELBROT_KERNEL, "mandelbrot"
    from repro.apps.osem.kernels import OSEM_PROGRAM

    return OSEM_PROGRAM, "forward_project"


def _app_args(app: str, lanes: int) -> List[object]:
    if app == "mandelbrot":
        from repro.bench.stream import frame_config

        cfg = frame_config(0)
        x_step = (cfg.x1 - cfg.x0) / lanes
        y_mid = (cfg.y0 + cfg.y1) / 2.0
        return [
            np.zeros(lanes, dtype=np.int32), lanes, 1, 0, 1,
            np.float32(cfg.x0), np.float32(y_mid), np.float32(x_step), np.float32(cfg.dy),
            cfg.max_iter,
        ]
    from repro.apps.osem import disk_phantom, generate_events

    n = 32
    events = generate_events(disk_phantom(n), lanes, seed=7)
    return [
        events.x1, events.y1, events.x2, events.y2,
        np.ones(n * n, dtype=np.float32), np.zeros(lanes, dtype=np.float32),
        lanes, n, 16,
    ]


def _synthetic_args(kernel, lanes: int) -> List[object]:
    args: List[object] = []
    for sym in kernel.info.param_symbols:
        if isinstance(sym.type, PointerType):
            if sym.type.address_space == "local":
                args.append(LocalMemory(lanes * sym.type.pointee.size))
            else:
                args.append(np.zeros(lanes, dtype=sym.type.pointee.np_dtype))
        else:
            args.append(1.0 if sym.type.is_float else lanes)
    return args


def _copy_args(args: Sequence[object]) -> List[object]:
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def launch_counts(python_source: str, launch: Callable[[], object]) -> Tuple[int, int]:
    """Run ``launch()`` — kernels of the module ``python_source`` — and
    count what it costs the host: ``(calls, blocks)``.

    ``calls`` is every Python function entered plus every C function
    called (``sys.setprofile`` ``call`` + ``c_call`` events; operators
    are neither), ``blocks`` every ``_ctx.ops +=`` line executed.  Both
    are deterministic: ``tests/clc/test_block_codegen.py`` holds the
    bundled kernels to a budget with them."""
    charges = {n for n, line in enumerate(python_source.splitlines(), 1) if "_ctx.ops +=" in line}
    counts = [0, 0]

    def profiler(frame, event, arg):
        if event in ("call", "c_call"):
            counts[0] += 1

    def line_tracer(frame, event, arg):
        if event == "line" and frame.f_lineno in charges:
            counts[1] += 1
        return line_tracer

    def tracer(frame, event, arg):
        return line_tracer if frame.f_code.co_filename == "<clc-codegen>" else None

    sys.settrace(tracer)
    sys.setprofile(profiler)
    try:
        launch()
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return counts[0] - 1, counts[1]  # less the c_call of the closing sys.setprofile


def run_report(program: CompiledProgram, kernel_name: str, lanes: int, args: Sequence[object]) -> str:
    """Execute one launch on both backends and tabulate what it cost."""
    kernel = program.kernel(kernel_name)
    counts = {"merge": 0, "compact": 0}
    originals = {name: getattr(vecrt, name) for name in counts}

    def counted(name):
        def wrapper(*args):
            counts[name] += 1
            return originals[name](*args)

        return wrapper

    results = {}
    try:
        for name in counts:  # generated code reaches vecrt through the module
            setattr(vecrt, name, counted(name))
        for backend in ("vector", "interp"):
            bound = _copy_args(args)
            try:
                results[backend] = (execute_kernel(kernel, (lanes,), bound, backend=backend), bound)
            except CLCRuntimeError as exc:  # e.g. the interpreter has no barriers
                results[backend] = (exc, bound)
    finally:
        for name, original in originals.items():
            setattr(vecrt, name, original)
    calls = blocks = 0
    if not isinstance(results["vector"][0], CLCRuntimeError):  # a third launch, without the wrappers above
        bound = _copy_args(args)
        calls, blocks = launch_counts(program.python_source, lambda: execute_kernel(kernel, (lanes,), bound))
    lines = [f"run: kernel {kernel_name!r}, {lanes} work-items"]
    for backend, (stats, _) in results.items():
        if isinstance(stats, CLCRuntimeError):
            lines.append(f"  {backend:<6} failed: {stats}")
        else:
            lines.append(f"  {backend:<6} ops={stats.ops:.0f} work_items={stats.work_items} chunks={stats.chunks}")
    lines.append(
        f"  vector merges executed={counts['merge']} compactions fired={counts['compact']} "
        f"blocks charged={blocks} python-level calls={calls}"
    )
    if not any(isinstance(stats, CLCRuntimeError) for stats, _ in results.values()):
        same = all(
            np.array_equal(v, i, equal_nan=True)
            for v, i in zip(results["vector"][1], results["interp"][1])
            if isinstance(v, np.ndarray)
        )
        lines.append(f"  buffers identical on both backends: {'yes' if same else 'NO'}")
    return "\n".join(lines)


def clcdump_text(
    source: str,
    kernel: Optional[str] = None,
    run: Optional[int] = None,
    args: Optional[Sequence[object]] = None,
) -> str:
    """The generated module, plus the run report when ``run`` is set
    (``args`` default to the synthetic ones described in the module
    docstring)."""
    program = compile_program(source)
    text = program.python_source
    if run is not None:
        name = kernel or next(iter(program.kernels))
        launch_args = args if args is not None else _synthetic_args(program.kernel(name), run)
        text += "\n" + run_report(program, name, run, launch_args)
    return text


def _main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(prog="clcdump", description=__doc__.split("\n\n")[0])
    parser.add_argument("file", nargs="?", help="OpenCL C source file")
    parser.add_argument("--app", choices=APPS, help="dump a bundled application's program instead")
    parser.add_argument("--kernel", help="kernel to run (default: the first; the app's main kernel)")
    parser.add_argument("--run", type=int, metavar="N", help="also execute one N-work-item launch")
    ns = parser.parse_args(argv)
    if (ns.file is None) == (ns.app is None):
        parser.error("give exactly one of FILE.cl and --app")
    args = None
    if ns.app is not None:
        source, default_kernel = _app_source(ns.app)
        kernel = ns.kernel or default_kernel
        if ns.run is not None and kernel == default_kernel:
            args = _app_args(ns.app, ns.run)
    else:
        with open(ns.file) as fh:
            source = fh.read()
        kernel = ns.kernel
    print(clcdump_text(source, kernel, ns.run, args))


if __name__ == "__main__":  # pragma: no cover
    _main()
