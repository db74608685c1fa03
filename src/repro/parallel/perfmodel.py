"""LogGP-style analytic performance model and per-rank virtual clock.

Fig 7 of the paper measures MaxEnt subsampling speedup from 1 to 512 MPI
ranks on Frontier.  We cannot allocate 512 cores, so each rank carries a
:class:`VirtualClock`: compute segments advance it by ``work / rate`` and each
collective advances *all* participating clocks to
``max(arrival times) + cost(op, bytes, p)``.  Speedup computed from virtual
time then reflects the decomposition and the comm:compute ratio — which is
precisely what Fig 7's knee demonstrates — rather than the host machine's
core count.

The cost model follows the classic LogGP decomposition: a per-message latency
``alpha``, a per-byte cost ``beta``, and tree-structured collectives scaling
with ``ceil(log2 p)`` rounds.  Default constants approximate a Slingshot-class
fabric (2 us latency, 25 GB/s effective per-rank bandwidth) against a CPU
processing rate calibrated so that single-rank subsampling of the SST-P1F100
case takes O(minutes) of virtual time, matching the paper's reported runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["PerfModel", "VirtualClock", "CommStats"]


@dataclass
class CommStats:
    """Counters accumulated by a communicator on behalf of one rank."""

    bytes_sent: int = 0
    collectives: int = 0
    compute_work: float = 0.0


@dataclass
class PerfModel:
    """Analytic cost model mapping counted events to seconds of virtual time.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds (includes software overhead).
    beta:
        Per-byte transfer cost in seconds (1 / effective bandwidth).
    compute_rate:
        Work units (points processed through the sampling kernels) per second
        for a single rank.
    imbalance:
        Fractional slowdown of the slowest rank per collective round; models
        OS noise / stragglers that flatten real speedup curves at scale.
    """

    alpha: float = 2.0e-6
    beta: float = 1.0 / 25.0e9
    compute_rate: float = 2.0e6
    imbalance: float = 0.0

    def compute_time(self, work: float) -> float:
        """Seconds to process `work` units of local computation."""
        if work < 0:
            raise ValueError("work must be non-negative")
        return work / self.compute_rate

    def collective_time(self, op: str, nbytes: int, p: int) -> float:
        """Cost of one collective over *p* ranks moving *nbytes* per rank.

        Tree algorithms take ``ceil(log2 p)`` rounds of (alpha + n*beta);
        allreduce is a reduce followed by a bcast, so twice that.
        """
        if p <= 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        per_round = self.alpha + nbytes * self.beta
        if op in ("bcast", "gather"):
            base = rounds * per_round
        elif op == "allreduce":
            base = 2 * rounds * per_round
        else:
            raise ValueError(f"unknown collective {op!r}")
        return base * (1.0 + self.imbalance * rounds)


@dataclass
class VirtualClock:
    """Per-rank virtual time, advanced by the perf model.

    ``t`` is the rank's current virtual time in seconds.  Collectives call
    :meth:`sync_to` with the max arrival time across ranks plus the modeled
    collective cost.
    """

    model: PerfModel = field(default_factory=PerfModel)
    t: float = 0.0
    stats: CommStats = field(default_factory=CommStats)

    def add_compute(self, work: float) -> None:
        """Account `work` units of local computation (e.g. points scanned)."""
        self.stats.compute_work += work
        self.t += self.model.compute_time(work)

    def sync_to(self, arrival_max: float, op: str, nbytes: int, p: int) -> None:
        """Advance to the collective's completion time."""
        self.stats.collectives += 1
        self.stats.bytes_sent += nbytes
        self.t = max(self.t, arrival_max) + self.model.collective_time(op, nbytes, p)
