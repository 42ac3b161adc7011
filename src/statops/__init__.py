"""statops: statistical management toolkit for large IT systems.

Three pipelines over one testing core:

- ``traces`` + ``discovery``: service/host dependency graphs mined from
  packet-header traces via FDR-controlled channel correlation tests
- ``diagnosis``: SLO violation classification, per-metric signatures,
  clustering and retrieval
- ``repairs``: watchdog / device-manager repair-loop simulation and log mining

``import statops`` loads no submodule: each one is imported on first access
(``statops.repairs``), so a command pays only for the modules it runs.
"""

import importlib

__all__ = ["stats", "traces", "discovery", "diagnosis", "repairs"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
