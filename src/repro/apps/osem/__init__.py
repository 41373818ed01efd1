"""List-mode OSEM PET reconstruction (the Section V-B application study).

The paper reconstructs quadHIDAC PET patient data with EMRECON — both
proprietary.  Per the substitution rule we generate *synthetic* list-mode
events from a numeric phantom (the data path, iteration structure, and
kernel/buffer/transfer pattern are identical; only the clinical content
differs).

The reconstruction itself is a faithful list-mode OSEM: ordered subsets,
per-event forward projection along the line of response, multiplicative
correction by back projection, sensitivity normalisation.  The system
model is a ray-driven line integral with uniform sampling (a standard
choice; the paper's EMRECON uses a comparable projector).
"""

from repro.apps.osem.phantom import disk_phantom, shepp_logan_like
from repro.apps.osem.listmode import ListModeEvents, generate_events
from repro.apps.osem.reconstruct import ListModeOSEM, OSEMResult

__all__ = [
    "ListModeEvents",
    "ListModeOSEM",
    "OSEMResult",
    "disk_phantom",
    "generate_events",
    "shepp_logan_like",
]
