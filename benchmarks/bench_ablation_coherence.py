"""A1 — ablation: MSI (client-mediated) vs MOSI (server-to-server).

Section III-F predicts that direct server-to-server synchronisation uses
"the available communication bandwidth more efficiently" — the MOSI
extension should clearly beat client-mediated MSI when a buffer
ping-pongs between kernels on different servers.
"""

import pytest

from repro.bench.figures import ablation_coherence


@pytest.mark.benchmark(group="ablation")
def test_ablation_msi_vs_mosi(benchmark, record_saver):
    record = benchmark.pedantic(ablation_coherence, rounds=1, iterations=1)
    record_saver(record)

    # MOSI replaces two client-mediated hops with one direct hop, on the
    # pipeline and on the reference path.
    for path in ("pipeline", "reference"):
        msi = record.select(path=path, protocol="MSI")[0]["total_time"]
        mosi = record.select(path=path, protocol="MOSI")[0]["total_time"]
        assert mosi < msi
        assert msi / mosi > 1.5
