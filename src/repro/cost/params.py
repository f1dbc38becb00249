"""Cost-model constants — the c_* unit costs of §5.4.

The paper's model charges per-tuple unit costs for disk reads/writes,
network shuffles, predicate checks and join work.  Absolute values are
testbed-specific; the defaults below follow the usual disk < network
ordering of a commodity Hadoop cluster and can be swept for ablations
(see ``benchmarks/test_ablation_job_overhead.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostParams:
    """Per-tuple unit costs plus MapReduce framework overheads."""

    #: time to read one tuple from (simulated) HDFS — c_read
    c_read: float = 1.0
    #: time to write one tuple to disk — c_write
    c_write: float = 1.5
    #: time to transfer one tuple between nodes — c_shuffle
    c_shuffle: float = 2.5
    #: time for one comparison on part of a tuple — c_check
    c_check: float = 0.1
    #: per-tuple join work factor — used by c_join(op1 .. opn)
    c_join: float = 0.4
    #: fixed initialization overhead of one MapReduce job (the paper's
    #: §6.4 discussion: "pay the initialization overhead of these
    #: MapReduce jobs"); used by the execution simulator, not by the
    #: §5.4 total-work formula.
    job_overhead: float = 0.0

    def scaled(self, **kwargs: float) -> "CostParams":
        """A copy with some constants replaced (ablation helper)."""
        return replace(self, **kwargs)


#: Defaults used by the optimizer's plan selection.
DEFAULT_PARAMS = CostParams()
