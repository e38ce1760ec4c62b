"""Network substrate: traffic cost accounting.

Delta's sole optimisation objective is network traffic, measured in bytes
moved between the repository and the middleware cache.  The paper assumes
costs proportional to transfer size (valid for TCP when transfers dwarf frame
size).  :mod:`repro.network.cost` defines the cost model and
:mod:`repro.network.link` the per-mechanism traffic ledger used by the
simulator and the reports.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "AffineCostModel": "repro.network.cost",
    "LinearCostModel": "repro.network.cost",
    "TrafficCostModel": "repro.network.cost",
    "Mechanism": "repro.network.link",
    "NetworkLink": "repro.network.link",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
