"""Simulated MPI runtime.

The paper runs SICKLE's subsampler with ``srun -n 32 python subsample.py`` on
Frontier (mpi4py under the hood) and measures parallel scalability up to 512
ranks (Fig 7).  mpi4py and a real interconnect are unavailable offline, so this
package provides:

* :class:`~repro.parallel.comm.Communicator` — the mpi4py-like interface the
  sampling pipeline codes against (``rank``/``size``/``bcast``/``gather``/
  ``allreduce``, the three collectives the program calls, each defined once),
* :class:`~repro.parallel.comm.SerialComm` — a size-1 no-op communicator,
* :class:`~repro.parallel.threadcomm.ThreadComm` and
  :class:`~repro.parallel.procomm.ProcessComm` + :func:`~repro.parallel.spmd.run_spmd`
  — thread- and process-backed SPMD executors with *correct collective
  semantics* (every rank really runs concurrently and synchronizes),
* :class:`~repro.parallel.perfmodel.PerfModel` — a LogGP-style analytic cost
  model that converts per-rank compute/communication counters into virtual
  time, reproducing Fig 7's speedup/efficiency curves (quasilinear region,
  then a knee where ranks starve) without needing 512 physical cores.
"""

from repro.parallel.comm import Communicator, PeerRankFailed, RankFailure, SerialComm
from repro.parallel.threadcomm import ThreadComm
from repro.parallel.procomm import ProcessComm, ProcessCommWorld
from repro.parallel.spmd import SPMD_BACKENDS, run_spmd
from repro.parallel.perfmodel import PerfModel, VirtualClock, CommStats
from repro.parallel.partition import (
    Partition,
    ProducerReport,
    block_bounds,
    block_partition,
    owner_of,
    stream_partitions,
    window_counts,
)

__all__ = [
    "Communicator",
    "SerialComm",
    "ThreadComm",
    "ProcessComm",
    "ProcessCommWorld",
    "RankFailure",
    "PeerRankFailed",
    "run_spmd",
    "SPMD_BACKENDS",
    "PerfModel",
    "VirtualClock",
    "CommStats",
    "block_partition",
    "block_bounds",
    "owner_of",
    "Partition",
    "ProducerReport",
    "stream_partitions",
    "window_counts",
]
