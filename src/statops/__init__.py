"""statops: statistical management toolkit for large IT systems.

Three pipelines over one testing core:

- ``traces`` + ``discovery``: service/host dependency graphs mined from
  packet-header traces via FDR-controlled channel correlation tests
- ``diagnosis``: SLO violation classification, per-metric signatures,
  clustering and retrieval
- ``repairs``: watchdog / device-manager repair-loop simulation and log mining
"""

from statops import diagnosis, discovery, repairs, stats, traces

__all__ = ["stats", "traces", "discovery", "diagnosis", "repairs"]
__version__ = "0.1.0"
