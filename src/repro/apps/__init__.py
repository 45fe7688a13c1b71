"""Application layer: the paper's motivating self-organizing camera network.

Section 1.1: nodes carry cameras; a node in the critical section (holding a
token) actively monitors, others sleep and recharge.  Mutual inclusion
guarantees *continuous observation* — no instant without an active camera —
and graceful handover means activity overlaps during transfer.

* :mod:`repro.apps.monitoring` — couples a CST network to camera activity
  and measures observation coverage;
* :mod:`repro.apps.energy` — battery/harvesting model quantifying the
  energy saving of "few active nodes" vs "all nodes always on";
* :mod:`repro.apps.handover` — extracts handover events from token
  timelines and verifies each handover is *graceful* (overlapping activity);
* :mod:`repro.apps.mutex` — a callback-based critical-section *service* API
  (enter/exit notifications, session logs) over the transformed network.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.monitoring": ("CameraNetwork", "MonitoringReport"),
    "repro.apps.energy": (
        "EnergyModel", "EnergyReport", "constant_harvest", "diurnal_harvest",
    ),
    "repro.apps.handover": (
        "HandoverEvent", "extract_handovers", "all_graceful",
    ),
    "repro.apps.mutex": ("CriticalSectionService", "Session"),
})
