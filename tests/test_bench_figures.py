"""Tier-1 checks of the paper's figure shapes (``repro.bench.figures``).

The figure benches under ``benchmarks/`` take minutes together; the
ones fast enough for tier-1 run here with the same assertions.
"""

from repro.bench.figures import ablation_coherence


def test_mosi_beats_msi_by_half_again_on_both_paths():
    """Section III-F's ablation: a buffer ping-ponged between kernels on
    two servers costs MSI two client-mediated hops per move and MOSI one
    direct hop, on the pipeline and on the reference path alike.  The
    timed region starts at a ``clFinish`` on both queues: the deferred
    build and argument set-up land before it."""
    record = ablation_coherence()
    for path in ("pipeline", "reference"):
        msi = record.select(path=path, protocol="MSI")[0]["total_time"]
        mosi = record.select(path=path, protocol="MOSI")[0]["total_time"]
        assert msi / mosi > 1.5, (path, msi, mosi)
